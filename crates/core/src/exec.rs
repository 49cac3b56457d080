//! Deterministic parallel execution.
//!
//! The benchmark stack fans out at three levels — (method, condition)
//! table cells, evaluation tasks and closed-loop driving trials — and
//! nowhere below them: a training step and a collection frame run on their
//! caller's thread. A unit of work there costs milliseconds to seconds; a
//! per-step or per-frame fan-out would spawn threads inside cells that
//! already fill the pool, and spend more in the kernel than it saves.
//! Reproducibility is non-negotiable: the same seed must produce
//! byte-identical tables regardless of how many workers run. This module
//! provides the two pieces that make that combination work, with no
//! dependencies beyond `std`:
//!
//! * [`par_run_traced`] — a scoped worker pool (`std::thread::scope`) that
//!   fans a work list across up to [`jobs`] threads and returns results
//!   **in input order**, recording one `work_unit` timing event per item
//!   into an [`ObsSink`](crate::obs::ObsSink) — span parentage is captured
//!   on the submitting thread, so nesting stays correct across the pool —
//!   and [`par_map_traced`], the same over a slice. Callers must make each
//!   work item self-contained (no RNG shared across items); under that
//!   contract the output is bit-identical for any job count, including 1.
//! * [`derive_seed`] — a stable, platform-independent seed-derivation
//!   function: a `(base seed, stream tag, index)` triple maps to one `u64`.
//!   Units of parallel work seed their own `StdRng` from it, so splitting
//!   a serial RNG stream never enters the picture.
//!
//! The worker count resolves, in order: an explicit [`set_jobs`] override
//! (the `--jobs` CLI flag), the `LBCHAT_JOBS` environment variable, and
//! finally [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide jobs override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted by [`jobs`] when no override is set.
pub const JOBS_ENV: &str = "LBCHAT_JOBS";

/// Overrides the worker count used by [`par_run_traced`] (the
/// `--jobs` flag). A value of 0 clears the override, falling back to
/// `LBCHAT_JOBS` / hardware detection.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count: [`set_jobs`] override, else the `LBCHAT_JOBS`
/// environment variable, else [`std::thread::available_parallelism`].
/// Always at least 1.
pub fn jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(0..n)` across up to [`jobs`] worker threads and returns the
/// results in index order.
///
/// Work items are claimed from a shared atomic counter (work stealing), so
/// uneven item costs balance automatically; because results are re-sorted
/// by index, scheduling order never affects the output. With one worker
/// (or one item) the work runs inline on the calling thread.
///
/// # Panics
/// Re-raises a panic from any work item on the calling thread.
fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut keyed: Vec<(usize, R)> = shards.into_iter().flatten().collect();
    keyed.sort_by_key(|&(i, _)| i);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f(0..n)` across up to [`jobs`] worker threads and returns the
/// results in index order. Items are claimed from a shared counter, so
/// uneven costs balance, and the re-sort by index keeps the schedule out
/// of the output; with one worker (or one item) the work runs inline on
/// the calling thread.
///
/// When `sink` is recording, each work item runs inside a `work_unit` span
/// (see [`crate::obs`]) tagged with `stage` and the item index, parented
/// to whatever span was open on the *calling* thread — so span nesting
/// survives the pool boundary.
///
/// The emitted `work_unit` events carry only timing plus the
/// deterministic `(stage, index)` pair, so traced runs remain comparable
/// across `--jobs` settings.
///
/// The closure is `Fn + Sync` and every draw needs `&mut` access to its
/// generator, so items cannot share one serial RNG stream — whose draw
/// order would follow the schedule. Capturing a generator and drawing
/// from it does not compile; each item seeds its own from [`derive_seed`]:
///
/// ```compile_fail
/// use rand::{rngs::StdRng, RngExt, SeedableRng};
/// let sink = lbchat::obs::ObsSink::disabled();
/// let mut rng = StdRng::seed_from_u64(7);
/// let draws = lbchat::exec::par_run_traced(&sink, "draw", 8, |_| rng.random::<f32>());
/// ```
///
/// # Panics
/// Re-raises a panic from any work item on the calling thread.
pub fn par_run_traced<R, F>(sink: &crate::obs::ObsSink, stage: &str, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if !sink.enabled() {
        return par_run(n, f);
    }
    let parent = crate::obs::current_span();
    par_run(n, |i| {
        let _unit = sink.work_span(stage, i, parent);
        f(i)
    })
}

/// Maps `f` over `items` in parallel, preserving order, with per-work-unit
/// observability; see [`par_run_traced`]. `f` receives the item index
/// alongside the item so callers can derive per-item seeds with
/// [`derive_seed`].
pub fn par_map_traced<T, R, F>(
    sink: &crate::obs::ObsSink,
    stage: &str,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_run_traced(sink, stage, items.len(), |i| f(i, &items[i]))
}

/// The splitmix64 finalizer — a full-avalanche 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a stable per-unit RNG seed from a base seed, a stream tag, and
/// an index.
///
/// The tag separates independent randomness streams that share a base seed
/// (e.g. `"trial-world"` vs `"trial-route"`); the index separates units
/// within a stream (trial 0, trial 1, …). The mapping is a pure function of
/// its inputs — same triple, same seed, on any platform, forever — which is
/// what makes parallel execution reproducible: every unit of work seeds its
/// own `StdRng` instead of consuming a shared serial stream.
pub fn derive_seed(base: u64, stream: &str, index: u64) -> u64 {
    // FNV-1a over the tag bytes, then splitmix64 rounds folding in the base
    // and index so that close-together bases/indices land far apart.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in stream.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(mix(base ^ h).wrapping_add(mix(index)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_run_matches_serial_map() {
        let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(par_run(100, |i| i * i), serial);
    }

    #[test]
    fn par_run_handles_edge_sizes() {
        assert_eq!(par_run(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_run_preserves_order_under_uneven_load() {
        let out = par_run(64, |i| {
            // Make early items slow so late items finish first.
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn derive_seed_is_stable_across_calls() {
        let a = derive_seed(42, "trial", 7);
        let b = derive_seed(42, "trial", 7);
        assert_eq!(a, b);
        // Pin one value so accidental algorithm changes (which would break
        // recorded results) fail loudly.
        assert_eq!(derive_seed(0, "", 0), 0x5905_c3be_d5e4_a7a7);
    }

    #[test]
    fn derive_seed_separates_cells() {
        let mut seen = std::collections::BTreeSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for stream in ["trial-world", "trial-route", "cell", ""] {
                for index in 0..64u64 {
                    assert!(
                        seen.insert(derive_seed(base, stream, index)),
                        "collision at ({base}, {stream:?}, {index})"
                    );
                }
            }
        }
    }

    #[test]
    fn derive_seed_distinguishes_tag_and_index() {
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "b", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(2, "a", 0));
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn traced_fanout_records_one_work_unit_per_item() {
        use crate::obs::{EventKind, ObsSink};
        let sink = ObsSink::recording();
        let out = {
            let _outer = sink.span("fanout");
            par_run_traced(&sink, "unit-test", 8, |i| i * 2)
        };
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        let events = sink.events();
        let units: Vec<_> = events.iter().filter(|e| e.is(EventKind::WorkUnit)).collect();
        assert_eq!(units.len(), 8);
        let mut indices: Vec<u64> =
            units.iter().filter_map(|e| e.get("index")?.as_u64()).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..8).collect::<Vec<u64>>());
        let outer = events.iter().find(|e| e.is(EventKind::Span)).unwrap();
        let outer_id = outer.get("span_id").unwrap().as_u64();
        for u in &units {
            assert_eq!(u.str_field("stage"), Some("unit-test"));
            assert_eq!(u.get("parent_span").unwrap().as_u64(), outer_id);
        }
        // A disabled sink records nothing and changes nothing.
        let quiet = crate::obs::ObsSink::disabled();
        assert_eq!(par_run_traced(&quiet, "x", 3, |i| i), vec![0, 1, 2]);
        assert_eq!(quiet.event_count(), 0);
    }
}
