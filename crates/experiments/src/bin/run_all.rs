//! Runs every paper artifact in sequence (fig2, tables II-VII, fig3) at the
//! selected scale, in this process and over one shared scenario. Expect
//! minutes at the default scale, hours at --paper.

use experiments::paper::{self, Artifact};
use experiments::Args;

fn main() {
    let args = Args::parse();
    let s = paper::scenario(&args);
    for artifact in Artifact::ALL {
        eprintln!("==== running {} ====", artifact.name());
        artifact.run(&s, &args);
    }
}
