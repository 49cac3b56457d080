//! Table V — ablation: equal compression ratios instead of the Eq. (7)
//! coreset-driven optimization.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table5);
}
