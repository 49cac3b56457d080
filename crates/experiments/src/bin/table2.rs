//! Table II — driving success rate, no wireless loss.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table2);
}
