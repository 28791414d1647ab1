//! Request seeds as a pure function of `--seed`.
//!
//! Every seed the benchmark sends is `derive(run_seed, lane, index)`: the
//! same `--seed` replays the same traffic, and the program under test only
//! ever sees the generated values.

/// Independent seed streams of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The golden-check singleton requests.
    Golden,
    /// The small seed pool `sim_replay` cycles over.
    Replay,
    /// Load traffic of client `n` (warm-up and window share the stream, so
    /// no seed repeats within a run).
    Client(usize),
    /// The set-up request (first 200 of a fresh process).
    Setup,
    /// The trace-mode stream probe.
    Probe,
    /// The in-process layer walk.
    Walk,
}

impl Lane {
    fn id(self) -> u64 {
        match self {
            Lane::Golden => 1,
            Lane::Replay => 2,
            Lane::Setup => 3,
            Lane::Probe => 4,
            Lane::Walk => 5,
            Lane::Client(n) => 0x100 + n as u64,
        }
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of `lane` under `run_seed`.
///
/// 52 bits wide: seeds travel as JSON numbers, which the gateway's decoder
/// accepts only while they are exact in an `f64`.
pub fn derive(run_seed: u64, lane: Lane, index: u64) -> u64 {
    mix(mix(mix(run_seed) ^ lane.id()) ^ index) >> 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derivation_is_a_pure_function_of_its_arguments() {
        assert_eq!(
            derive(0xB15B0B, Lane::Client(1), 42),
            derive(0xB15B0B, Lane::Client(1), 42)
        );
        assert_ne!(
            derive(0xB15B0B, Lane::Client(1), 42),
            derive(0xB15B0C, Lane::Client(1), 42)
        );
        assert_ne!(derive(7, Lane::Client(0), 3), derive(7, Lane::Client(1), 3));
        assert_ne!(derive(7, Lane::Golden, 3), derive(7, Lane::Replay, 3));
    }

    #[test]
    fn seeds_fit_a_json_number_and_do_not_collide() {
        let mut seen = HashSet::new();
        for lane in [Lane::Golden, Lane::Client(0), Lane::Client(1), Lane::Walk] {
            for index in 0..20_000 {
                let seed = derive(0xB15B0B, lane, index);
                assert!(seed < 1 << 52);
                assert_eq!(seed as f64 as u64, seed);
                assert!(seen.insert(seed), "collision at {lane:?}/{index}");
            }
        }
    }
}
