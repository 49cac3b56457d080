//! Table VII — SCO: sharing coresets only (no model exchange).

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table7);
}
