//! Runs every paper artifact (fig2, tables II-VII, fig3) at the selected
//! scale in this process, over one scenario and one manifest, training each
//! distinct cell once. Expect minutes at the default scale, hours at --paper.

use experiments::paper::{self, Artifact};
use experiments::Args;

fn main() {
    let args = Args::parse();
    paper::run("run_all", &Artifact::ALL, &paper::scenario(&args), &args);
}
