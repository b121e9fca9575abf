//! The benchmark's workloads and the inputs each one derives from a seed.
//! The same seed always yields the same inputs; the program under test
//! receives only these generated inputs.

use sm_serve::{MultiServeConfig, PolicyKind, TitleConfig};

use crate::offline::OfflineInput;

/// Media length of the off-line batch workload.
pub const OFFLINE_MEDIA_LEN: u64 = 100;

/// Summed arrival rate of both serve catalogs, in arrivals per slot.
const ARRIVALS_PER_SLOT: f64 = 1.75;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Three dyadic titles behind a saturated six-channel budget: the
    /// planner delays most groups, fan-in is cheap.
    Catalog3Budget6,
    /// 32 Zipf-popular titles, unbounded budget: fan-in and per-title
    /// state dominate, the planner returns at once.
    Zipf32Unbounded,
    /// The batch path at `L = 100`: §3 optimum, Delay Guaranteed forest,
    /// and the events engine replaying both. No pipeline, planner or
    /// incremental policy.
    OfflineL100,
}

/// What one workload feeds the program.
pub enum Input {
    /// A multi-title serving run.
    Serve(MultiServeConfig),
    /// Consecutive one-client slots at [`OFFLINE_MEDIA_LEN`].
    Offline(OfflineInput),
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Catalog3Budget6,
        Workload::Zipf32Unbounded,
        Workload::OfflineL100,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog3Budget6 => "catalog3_budget6",
            Workload::Zipf32Unbounded => "zipf32_unbounded",
            Workload::OfflineL100 => "offline_L100",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Arrivals per timed call when the command line names no size.
    pub fn default_arrivals(self) -> usize {
        200_000
    }

    /// The inputs for `seed`, sized to about `arrivals` arrivals per call.
    pub fn input(self, seed: u64, arrivals: usize) -> Input {
        let mixed = splitmix64(seed);
        let horizon = arrivals as f64 / ARRIVALS_PER_SLOT;
        match self {
            Workload::Catalog3Budget6 => Input::Serve(MultiServeConfig {
                budget: Some(6),
                seed: mixed,
                ..MultiServeConfig::new(
                    vec![
                        TitleConfig::new(64, 1.0),
                        TitleConfig::new(100, 2.0),
                        TitleConfig::new(144, 4.0),
                    ],
                    horizon,
                )
            }),
            Workload::Zipf32Unbounded => Input::Serve(MultiServeConfig {
                seed: mixed,
                ..MultiServeConfig::new(zipf_catalog(32), horizon)
            }),
            // The seed moves `n` by up to 1% so that different seeds check
            // the optimum at different sizes.
            Workload::OfflineL100 => Input::Offline(OfflineInput::new(
                arrivals - (mixed % (arrivals as u64 / 100 + 1)) as usize,
            )),
        }
    }
}

/// `k` titles with Zipf(1) shares of [`ARRIVALS_PER_SLOT`]. Media lengths
/// cycle through five sizes and every fourth title runs Delay Guaranteed.
fn zipf_catalog(k: usize) -> Vec<TitleConfig> {
    let harmonic: f64 = (1..=k).map(|r| 1.0 / r as f64).sum();
    (0..k)
        .map(|i| {
            let rate = ARRIVALS_PER_SLOT / ((i + 1) as f64 * harmonic);
            let media_len = [64, 90, 100, 120, 144][i % 5];
            TitleConfig {
                policy: if i % 4 == 3 {
                    PolicyKind::DelayGuaranteed
                } else {
                    PolicyKind::Dyadic
                },
                ..TitleConfig::new(media_len, 1.0 / rate)
            }
        })
        .collect()
}

/// splitmix64: spreads small command-line seeds over the whole `u64`.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
