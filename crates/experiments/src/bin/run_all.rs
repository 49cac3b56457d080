//! Runs every experiment in sequence (fig2, tables II-VII, fig3) at the
//! selected scale. Expect minutes at the default scale, hours at --paper.
//!
//! The experiments run as the sibling binaries next to this one, so build
//! them all first: `cargo build --release -p experiments`.

use experiments::Args;
use std::path::PathBuf;
use std::process::Command;

const BINS: [&str; 8] =
    ["fig2", "table2", "table3", "table4", "table5", "table6", "table7", "fig3"];

fn main() {
    // Validate the flags once up front (prints usage and exits on a bad
    // flag), then forward them verbatim to every experiment binary.
    let _ = Args::parse();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    let paths = BINS.map(|bin| dir.join(format!("{bin}{}", std::env::consts::EXE_SUFFIX)));
    if let Some((bin, path)) = BINS.iter().zip(&paths).find(|(_, path)| !path.is_file()) {
        eprintln!(
            "error: experiment binary `{bin}` not found at {}; build every experiment first \
             with `cargo build --release -p experiments`",
            path.display()
        );
        std::process::exit(2);
    }
    for (bin, path) in BINS.iter().zip(&paths) {
        eprintln!("==== running {bin} ====");
        match Command::new(path).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{bin} failed: {status}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: could not run `{bin}` at {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}
