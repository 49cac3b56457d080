//! Table VI — ablation: plain-average aggregation instead of the Eq. (8)
//! coreset-loss-weighted merging.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table6);
}
