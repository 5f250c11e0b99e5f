//! Deterministic fault injection for the LoadDynamics recovery paths.
//!
//! The framework's fault-tolerance layer — the trainer's divergence
//! watchdog, trial isolation in the Bayesian optimizer, GP surrogate
//! recovery, and the baseline fallback — only runs when something goes
//! wrong, which on clean synthetic traces is never. This crate makes
//! "something goes wrong" a reproducible input: faults are *decisions
//! derived from a seed*, not random events, so a CI run that injects NaN
//! losses into 30% of trials injects them into exactly the same trials
//! every time.
//!
//! Six injection sites are wired into the workspace:
//!
//! | Site | Location | Effect |
//! |---|---|---|
//! | [`FaultSite::NanLoss`] | `ld-nn` trainer epoch loop | epoch loss becomes NaN for afflicted trials |
//! | [`FaultSite::CholeskyFail`] | `ld-bayesopt` surrogate fit | the whole GP surrogate fit fails (random-proposal fallback) |
//! | [`FaultSite::TraceCorrupt`] | `ld-traces` config builder | trace values become NaN / negative before sanitization |
//! | [`FaultSite::SnapshotCorrupt`] | `ld-serve` registry rehydration | a model snapshot read back from disk is truncated/garbled |
//! | [`FaultSite::BatchNan`] | `ld-serve` fused batch forward | one tenant's window turns NaN inside a shared batch |
//! | [`FaultSite::CrashWrite`] | `ld-serve` snapshot spill | the spill "crashes" mid-write, leaving a torn temp file |
//!
//! The [`chaos`] module layers a *schedule* on top of these point sites: a
//! seed-keyed timeline of slow-shard, snapshot-corrupt, crash-at-offset,
//! batch-NaN, and burst-overload windows that the `ld-loadgen --chaos`
//! soak harness replays deterministically.
//!
//! # Activation
//!
//! Injection is **off by default** and never process-global: a plan is a
//! [`Faults`] handle, passed to the code it afflicts like a span tracer.
//! `Faults::default()` injects nothing, and a site holding it costs one
//! `Option` check. Tests build a handle from a [`FaultConfig`] with
//! [`Faults::new`]; binaries build theirs once from the environment with
//! [`Faults::from_env`] and hand clones down:
//!
//! ```text
//! LD_FAULT="nan_loss=0.3,cholesky=1x1,trace=0.05" LD_FAULT_SEED=42 ld-cli ...
//! ```
//!
//! Each `site=rate[xCOUNT]` entry sets the per-key fault probability and an
//! optional cap on total occurrences (`cholesky=1x1`: rate 1.0, at most one
//! occurrence — "the first surrogate fit fails"). Clones of one handle
//! share its occurrence counters; a fresh handle starts them at zero.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod chaos;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The injection sites understood by the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Corrupt an epoch training loss to NaN (trainer watchdog path).
    NanLoss,
    /// Fail a whole GP surrogate fit (optimizer random-fallback path).
    CholeskyFail,
    /// Corrupt raw trace values to NaN / negatives (sanitizer path).
    TraceCorrupt,
    /// Garble a model snapshot as it is rehydrated from disk
    /// (serve-registry degradation path).
    SnapshotCorrupt,
    /// Poison one tenant's input window with NaN inside a fused batch
    /// (per-tenant fallback isolation path).
    BatchNan,
    /// Simulate a crash in the middle of a snapshot spill: the store
    /// writes a torn temp file, never publishes it, and reports the spill
    /// as failed (crash-consistency / recovery path).
    CrashWrite,
}

/// Every site in [`FaultSite::index`] order, with its spec-string name and
/// the hash salt that makes one key draw independent decisions at
/// different sites.
const SITES: [(FaultSite, &str, u64); 6] = [
    (FaultSite::NanLoss, "nan_loss", 0x6E61_6E5F_6C6F_7373),
    (FaultSite::CholeskyFail, "cholesky", 0x6368_6F6C_6573_6B79),
    (FaultSite::TraceCorrupt, "trace", 0x7472_6163_655F_6331),
    (FaultSite::SnapshotCorrupt, "snapshot", 0x736E_6170_5F63_7270),
    (FaultSite::BatchNan, "batch_nan", 0x6261_7463_685F_6E61),
    (FaultSite::CrashWrite, "crash", 0x6372_6173_685F_7772),
];

const SITE_COUNT: usize = SITES.len();

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::NanLoss => 0,
            FaultSite::CholeskyFail => 1,
            FaultSite::TraceCorrupt => 2,
            FaultSite::SnapshotCorrupt => 3,
            FaultSite::BatchNan => 4,
            FaultSite::CrashWrite => 5,
        }
    }

    fn salt(self) -> u64 {
        SITES[self.index()].2
    }

    /// Spec-string name (`nan_loss`, `cholesky`, `trace`, `snapshot`,
    /// `batch_nan`, `crash`).
    pub fn as_str(&self) -> &str {
        SITES[self.index()].1
    }

    fn from_str(s: &str) -> Option<Self> {
        SITES.iter().find(|site| site.1 == s).map(|site| site.0)
    }
}

/// Configuration of one injection site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteConfig {
    /// Fault probability per key in `[0, 1]`.
    pub rate: f64,
    /// Cap on total occurrences (`None` = unbounded).
    pub max: Option<u64>,
}

/// A full fault plan: a seed plus per-site configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed the per-key decisions derive from (mix the master seed in here
    /// so different experiment seeds afflict different trials).
    pub seed: u64,
    sites: [Option<SiteConfig>; SITE_COUNT],
}

impl FaultConfig {
    /// An empty plan (no site injects anything).
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            sites: [None; SITE_COUNT],
            seed,
        }
    }

    /// Returns the plan with `site` configured.
    pub fn with_site(mut self, site: FaultSite, rate: f64, max: Option<u64>) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.sites[site.index()] = Some(SiteConfig { rate, max });
        self
    }

    /// The configuration for `site`, if any.
    pub fn site(&self, site: FaultSite) -> Option<SiteConfig> {
        self.sites[site.index()]
    }

    /// Whether no site is configured (a [`Faults`] handle built from it
    /// injects nothing).
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(Option::is_none)
    }

    /// Parses a spec like `"nan_loss=0.3,cholesky=1x1,trace=0.05"`.
    ///
    /// Each entry is `site=rate` or `site=rateXcount` (capital or lowercase
    /// `x`); unknown sites and malformed numbers are errors.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut config = FaultConfig::new(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (name, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` missing `=`"))?;
            let site = FaultSite::from_str(name.trim())
                .ok_or_else(|| format!("unknown fault site `{name}`"))?;
            let value = value.trim();
            let (rate_str, max) = match value.split_once(['x', 'X']) {
                Some((r, c)) => {
                    let max: u64 = c
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad count in `{entry}`: {e}"))?;
                    (r.trim(), Some(max))
                }
                None => (value, None),
            };
            let rate: f64 = rate_str
                .parse()
                .map_err(|e| format!("bad rate in `{entry}`: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} in `{entry}` outside [0,1]"));
            }
            config = config.with_site(site, rate, max);
        }
        Ok(config)
    }
}

/// A fault plan as a value: an immutable [`FaultConfig`] plus per-site
/// occurrence counters, shared by every clone of the handle.
///
/// `Faults::default()` is off: every query answers "no fault" after one
/// `Option` check, so an unfaulted run is byte-identical to a build without
/// the hooks. Each site receives the handle the way it receives a
/// `Tracer` — through the trainer, the optimizer, the framework config, the
/// trace builder or the serving engine — so plans never leak between
/// engines, searches or tests that share a process.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    inner: Option<Arc<Plan>>,
}

#[derive(Debug)]
struct Plan {
    config: FaultConfig,
    counters: [AtomicU64; SITE_COUNT],
}

impl Plan {
    /// The keyed draw at `site`: deterministic in `(seed, site, key)`.
    fn fires(&self, site: FaultSite, key: u64, rate: f64) -> bool {
        unit_draw(self.config.seed, site.salt(), key) < rate
    }
}

impl Faults {
    /// A handle injecting `config`, with fresh occurrence counters.
    pub fn new(config: FaultConfig) -> Self {
        Faults {
            inner: Some(Arc::new(Plan {
                config,
                counters: Default::default(),
            })),
        }
    }

    /// The plan from `LD_FAULT` / `LD_FAULT_SEED` (seed defaults to
    /// `default_seed`), announced on stderr so a faulted run can never be
    /// mistaken for a clean one. Off when `LD_FAULT` is unset or empty;
    /// a malformed spec is reported and ignored (a typo'd knob must not
    /// corrupt a run).
    pub fn from_env(default_seed: u64) -> Self {
        let spec = std::env::var("LD_FAULT").unwrap_or_default();
        let spec = spec.trim();
        if spec.is_empty() {
            return Faults::default();
        }
        let seed = std::env::var("LD_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default_seed);
        match FaultConfig::parse(spec, seed) {
            Ok(config) => {
                eprintln!("fault injection active: LD_FAULT={spec} (seed {seed})");
                Faults::new(config)
            }
            Err(e) => {
                eprintln!("LD_FAULT ignored: {e}");
                Faults::default()
            }
        }
    }

    /// Whether a plan is attached.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    fn site(&self, site: FaultSite) -> Option<(&Plan, SiteConfig)> {
        let plan = self.inner.as_deref()?;
        Some((plan, plan.config.site(site)?))
    }

    /// Pure keyed decision: does `key` fault at `site`? Deterministic in
    /// `(plan seed, site, key)`; ignores occurrence caps.
    pub fn hit(&self, site: FaultSite, key: u64) -> bool {
        self.site(site)
            .is_some_and(|(plan, cfg)| plan.fires(site, key, cfg.rate))
    }

    /// Counted decision: each call consumes one slot of the site's
    /// occurrence budget; call `n` faults iff the site's keyed draw at index
    /// `n` fires and fewer than `max` faults were already injected. All
    /// clones of the handle share the counters. Deterministic as long as
    /// the site is consulted in a deterministic order (the BO surrogate
    /// loop is sequential).
    pub fn hit_counted(&self, site: FaultSite) -> bool {
        let Some((plan, cfg)) = self.site(site) else {
            return false;
        };
        let n = plan.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        cfg.max.is_none_or(|max| n < max) && plan.fires(site, n, cfg.rate)
    }

    /// Corrupts `v` if `key` faults at `site`: half the afflicted keys
    /// become NaN, half become `-(v + 1)` (strictly negative even at
    /// `v = 0`), so both repair paths of the sanitizer are exercised.
    pub fn corrupt_value(&self, site: FaultSite, key: u64, v: f64) -> f64 {
        let Some((plan, cfg)) = self.site(site) else {
            return v;
        };
        if !plan.fires(site, key, cfg.rate) {
            return v;
        }
        // Decorrelate the corruption mode from the hit decision.
        if splitmix64(plan.config.seed ^ site.salt() ^ key.wrapping_mul(3)) & 1 == 0 {
            f64::NAN
        } else {
            -(v + 1.0)
        }
    }
}

/// `splitmix64` — the finalizer used to turn `(seed, salt, key)` into an
/// independent uniform decision.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_draw(seed: u64, salt: u64, key: u64) -> f64 {
    let h = splitmix64(seed ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ splitmix64(key));
    // 53 high bits -> uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let off = Faults::default();
        assert!(!off.is_active());
        assert!(!off.hit(FaultSite::NanLoss, 7));
        assert!(!off.hit_counted(FaultSite::CholeskyFail));
        assert_eq!(off.corrupt_value(FaultSite::TraceCorrupt, 0, 5.0), 5.0);
        // An attached but empty plan is active and still injects nothing.
        let empty = Faults::new(FaultConfig::new(3));
        assert!(empty.is_active());
        assert!(!empty.hit(FaultSite::NanLoss, 7));
        assert!(!empty.hit_counted(FaultSite::CholeskyFail));
    }

    #[test]
    fn decisions_are_deterministic_and_rate_accurate() {
        let faults = Faults::new(FaultConfig::new(42).with_site(FaultSite::NanLoss, 0.3, None));
        let first: Vec<bool> = (0..10_000).map(|k| faults.hit(FaultSite::NanLoss, k)).collect();
        let second: Vec<bool> = (0..10_000).map(|k| faults.hit(FaultSite::NanLoss, k)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (2700..3300).contains(&hits),
            "expected ~30% of 10k keys, got {hits}"
        );
    }

    #[test]
    fn different_seeds_afflict_different_keys() {
        // Both plans are live at once: neither handle sees the other.
        let one = Faults::new(FaultConfig::new(1).with_site(FaultSite::NanLoss, 0.3, None));
        let two = Faults::new(FaultConfig::new(2).with_site(FaultSite::NanLoss, 0.3, None));
        let draw = |f: &Faults| -> Vec<bool> {
            (0..512).map(|k| f.hit(FaultSite::NanLoss, k)).collect()
        };
        let (a, b) = (draw(&one), draw(&two));
        assert_ne!(a, b);
        assert_eq!(draw(&one), a, "a second live plan must not disturb the first");
    }

    #[test]
    fn counted_site_respects_occurrence_cap() {
        let capped = || FaultConfig::new(0).with_site(FaultSite::CholeskyFail, 1.0, Some(2));
        let faults = Faults::new(capped());
        let hits: Vec<bool> = (0..10)
            .map(|_| faults.hit_counted(FaultSite::CholeskyFail))
            .collect();
        assert_eq!(hits.iter().filter(|&&b| b).count(), 2);
        assert!(hits[0] && hits[1], "cap consumes the first calls at rate 1");

        // Two clones share one budget; a fresh handle starts its own.
        let shared = Faults::new(capped());
        let clone = shared.clone();
        assert!(shared.hit_counted(FaultSite::CholeskyFail));
        assert!(clone.hit_counted(FaultSite::CholeskyFail));
        assert!(!shared.hit_counted(FaultSite::CholeskyFail));
        assert!(!clone.hit_counted(FaultSite::CholeskyFail));
    }

    #[test]
    fn corrupt_value_produces_nan_and_negatives() {
        let faults = Faults::new(FaultConfig::new(9).with_site(FaultSite::TraceCorrupt, 1.0, None));
        let out: Vec<f64> = (0..64)
            .map(|k| faults.corrupt_value(FaultSite::TraceCorrupt, k, 10.0))
            .collect();
        assert!(out.iter().any(|v| v.is_nan()));
        assert!(out.iter().any(|v| *v < 0.0));
        assert!(out.iter().all(|v| v.is_nan() || *v < 0.0));
    }

    #[test]
    fn serve_sites_parse_and_draw_independently() {
        let parsed = FaultConfig::parse("snapshot=1x1, batch_nan=0.4", 5).unwrap();
        assert_eq!(
            parsed.site(FaultSite::SnapshotCorrupt),
            Some(SiteConfig { rate: 1.0, max: Some(1) })
        );
        assert_eq!(
            parsed.site(FaultSite::BatchNan),
            Some(SiteConfig { rate: 0.4, max: None })
        );
        // Distinct salts: the same keys must not fault identically at the
        // two new sites when both run at the same rate.
        let faults = Faults::new(
            FaultConfig::new(11)
                .with_site(FaultSite::SnapshotCorrupt, 0.4, None)
                .with_site(FaultSite::BatchNan, 0.4, None),
        );
        let snap: Vec<bool> = (0..512).map(|k| faults.hit(FaultSite::SnapshotCorrupt, k)).collect();
        let nan: Vec<bool> = (0..512).map(|k| faults.hit(FaultSite::BatchNan, k)).collect();
        assert_ne!(snap, nan);
        assert!(snap.iter().any(|&b| b) && nan.iter().any(|&b| b));
    }

    #[test]
    fn site_table_follows_index_order() {
        for (i, &(site, name, _)) in SITES.iter().enumerate() {
            assert_eq!(site.index(), i);
            assert_eq!(FaultSite::from_str(name), Some(site));
            assert_eq!(site.as_str(), name);
        }
    }

    #[test]
    fn spec_parsing_roundtrip_and_errors() {
        let parsed = FaultConfig::parse("nan_loss=0.3, cholesky=1x1 ,trace=0.05", 7).unwrap();
        assert_eq!(
            parsed.site(FaultSite::NanLoss),
            Some(SiteConfig { rate: 0.3, max: None })
        );
        assert_eq!(
            parsed.site(FaultSite::CholeskyFail),
            Some(SiteConfig { rate: 1.0, max: Some(1) })
        );
        assert_eq!(
            parsed.site(FaultSite::TraceCorrupt),
            Some(SiteConfig { rate: 0.05, max: None })
        );
        assert!(FaultConfig::parse("bogus=1", 0).is_err());
        assert!(FaultConfig::parse("nan_loss", 0).is_err());
        assert!(FaultConfig::parse("nan_loss=2.0", 0).is_err());
        assert!(FaultConfig::parse("cholesky=1xzz", 0).is_err());
        // Empty spec parses to an empty plan.
        let empty = FaultConfig::parse("", 3).unwrap();
        assert_eq!(empty, FaultConfig::new(3));
    }
}
