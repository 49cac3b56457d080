//! Fig. 2 — training loss vs time for LbChat and the four benchmarks,
//! without (panel a) and with (panel b) wireless loss; also prints the
//! §IV-C successful model receiving rates.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Fig2);
}
