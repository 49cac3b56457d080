//! Table III — driving success rate with wireless loss.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table3);
}
