//! Fig. 3 — training loss vs time, LbChat vs SCO: the paper finds SCO
//! reaches similar final loss but takes 1.5x-1.8x longer to converge.

fn main() {
    experiments::paper::main(experiments::paper::Artifact::Fig3);
}
