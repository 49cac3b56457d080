//! Table IV — LbChat with different coreset sizes (10x and 1/10 the
//! default), with and without wireless loss.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Table4);
}
