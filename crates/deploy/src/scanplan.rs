//! Position-keyed scan plans: the deterministic half of a WiFi scan,
//! computed once and replayed with fresh shadowing noise every bin.
//!
//! A scan at a fixed position always considers the same candidate radios
//! with the same mean RSSI — only the shadowing (and, indoors, the
//! device↔AP micro-distance) is stochastic. Devices spend most bins at a
//! handful of anchor positions (home, office, friend homes), so the
//! spatial-index walk, the exact distance math and the per-radio
//! coefficient derivation can be hoisted out of the per-bin hot path into
//! a [`ScanPlan`] keyed by a quantized position. Sampling a plan is then
//! pure arithmetic: one uniform draw for indoor entries, one gaussian per
//! entry, a clamp and a floor test.
//!
//! Plans are built from the *cell centre* of the quantized key, never from
//! the query position, so every thread derives the identical plan for a
//! key. That keeps the shared cache free of scheduling effects: a cache
//! hit or miss can change timing but never content, preserving the
//! campaign's cross-thread determinism.

use crate::ap::ApId;
use crate::world::{ApWorld, ScanObs, SCAN_FLOOR};
use mobitrace_model::{Band, Channel, Dbm};
use mobitrace_radio::GaussianPair;
use parking_lot::RwLock;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Quantized-position key of a scan plan: metre-grid cell indexes
/// (east, north) relative to the world's spatial origin.
pub type PlanKey = (i32, i32);

/// Edge length of the plan quantization grid (metres). Anchor positions
/// repeat exactly, so 1 m merges float jitter without blurring RSSI:
/// moving ≤ 1 m changes the mean by well under the shadowing σ.
pub const PLAN_QUANT_M: f64 = 1.0;

/// Entries whose best-case mean stays `PRUNE_SIGMA` standard deviations
/// under the scan floor are dropped at plan build: detection odds are
/// below 1e-15, statistically invisible over any campaign.
pub(crate) const PRUNE_SIGMA: f64 = 8.0;

/// Default capacity bound for the shared plan cache. Popular cells
/// (stations, offices, dense residential blocks) fit comfortably; beyond
/// the cap the least-recently-used cell is evicted, so city-plus worlds
/// degrade to bounded memory instead of stalling cache fills.
const SHARED_PLAN_CAP: usize = 1 << 15;

/// One candidate radio in a scan plan, with its deterministic signal
/// parameters folded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Which AP.
    pub ap: ApId,
    /// Radio index within the AP.
    pub radio: u8,
    /// Band of the radio's beacon.
    pub band: Band,
    /// Channel of the radio's beacon.
    pub channel: Channel,
    /// Whether the AP is a public-provider venue (pre-resolved so scan
    /// summaries need no AP table lookup per observation).
    pub public: bool,
    /// Shadowing standard deviation σ (dB).
    pub sigma_db: f64,
    /// Mean RSSI (dBm) at the plan position; for indoor entries, the mean
    /// at the *near* edge of the venue's distance range.
    pub mean_db: f64,
    /// Mean-RSSI spread (dB) across the indoor distance range: 0 for
    /// geometric (outdoor) entries, `indoor_span_db` for indoor ones.
    pub span_db: f64,
}

impl PlanEntry {
    /// Materialise a [`ScanObs`] for this entry at a sampled RSSI.
    pub fn obs(&self, rssi: Dbm) -> ScanObs {
        ScanObs { ap: self.ap, radio: self.radio, band: self.band, channel: self.channel, rssi }
    }
}

/// The deterministic candidate list for one quantized position, stored
/// structure-of-arrays: the replay hot loop touches only the three `f64`
/// coefficient columns (contiguous, lane-friendly), while the identity
/// columns are read only for entries that clear the scan floor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanPlan {
    aps: Vec<ApId>,
    radios: Vec<u8>,
    bands: Vec<Band>,
    channels: Vec<Channel>,
    publics: Vec<bool>,
    sigma_db: Vec<f64>,
    mean_db: Vec<f64>,
    span_db: Vec<f64>,
}

/// Block width of the two-phase replay loop: stack buffers for the drawn
/// deviates and the computed RSSI, so sampling allocates nothing.
const SAMPLE_BLOCK: usize = 64;

impl ScanPlan {
    /// Build a plan from entries in spatial-index visit order.
    pub fn from_entries(entries: impl IntoIterator<Item = PlanEntry>) -> ScanPlan {
        let mut plan = ScanPlan::default();
        for e in entries {
            plan.push(e);
        }
        plan
    }

    /// Append one candidate entry.
    pub fn push(&mut self, e: PlanEntry) {
        self.aps.push(e.ap);
        self.radios.push(e.radio);
        self.bands.push(e.band);
        self.channels.push(e.channel);
        self.publics.push(e.public);
        self.sigma_db.push(e.sigma_db);
        self.mean_db.push(e.mean_db);
        self.span_db.push(e.span_db);
    }

    /// Materialise the row form of entry `i`.
    pub fn entry(&self, i: usize) -> PlanEntry {
        PlanEntry {
            ap: self.aps[i],
            radio: self.radios[i],
            band: self.bands[i],
            channel: self.channels[i],
            public: self.publics[i],
            sigma_db: self.sigma_db[i],
            mean_db: self.mean_db[i],
            span_db: self.span_db[i],
        }
    }

    /// Iterate the entries in plan order (materialised rows).
    pub fn entries(&self) -> impl Iterator<Item = PlanEntry> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Sample one scan from the plan: per entry, draw the indoor
    /// micro-distance (one uniform — the mean is linear in it) and the
    /// shadowing deviate, clamp to the chipset range, and emit every
    /// observation clearing the scan floor through `on_obs`.
    ///
    /// Runs in `SAMPLE_BLOCK`-entry blocks of three phases. Phase 1
    /// draws the deviates in strict entry order — one uniform for indoor
    /// (`span_db > 0`) entries, then the gaussian — so the RNG stream is
    /// bit-identical to [`sample_scalar`](Self::sample_scalar). Phase 2 is
    /// the pure lane math `(mean - u·span) + g·σ` over the coefficient
    /// columns (outdoor entries use `u = 0`, and `x - 0.0·span == x`
    /// exactly, so the association matches the scalar form). Phase 3
    /// floor-tests and emits in entry order.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        gauss: &mut GaussianPair,
        mut on_obs: impl FnMut(&PlanEntry, Dbm),
    ) {
        let n = self.len();
        let mut u = [0.0f64; SAMPLE_BLOCK];
        let mut g = [0.0f64; SAMPLE_BLOCK];
        let mut rs = [0.0f64; SAMPLE_BLOCK];
        let mut start = 0usize;
        while start < n {
            let m = SAMPLE_BLOCK.min(n - start);
            for k in 0..m {
                u[k] = if self.span_db[start + k] > 0.0 { rng.gen_range(0.0..1.0) } else { 0.0 };
                g[k] = gauss.sample(rng);
            }
            for k in 0..m {
                rs[k] = ((self.mean_db[start + k] - u[k] * self.span_db[start + k])
                    + g[k] * self.sigma_db[start + k])
                    .clamp(-95.0, -20.0);
            }
            for (k, &r) in rs.iter().enumerate().take(m) {
                let rssi = Dbm::from_f64(r);
                if rssi >= SCAN_FLOOR {
                    on_obs(&self.entry(start + k), rssi);
                }
            }
            start += m;
        }
    }

    /// Scalar reference for [`sample`](Self::sample) — the original
    /// entry-at-a-time loop, kept for the replay equivalence tests and
    /// benchmarks.
    pub fn sample_scalar<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        gauss: &mut GaussianPair,
        mut on_obs: impl FnMut(&PlanEntry, Dbm),
    ) {
        for i in 0..self.len() {
            let e = self.entry(i);
            let mean = if e.span_db > 0.0 {
                let u: f64 = rng.gen_range(0.0..1.0);
                e.mean_db - u * e.span_db
            } else {
                e.mean_db
            };
            let rssi = Dbm::from_f64((mean + gauss.sample(rng) * e.sigma_db).clamp(-95.0, -20.0));
            if rssi >= SCAN_FLOOR {
                on_obs(&e, rssi);
            }
        }
    }

    /// Number of candidate entries.
    pub fn len(&self) -> usize {
        self.aps.len()
    }

    /// True if no radio can be heard at this position.
    pub fn is_empty(&self) -> bool {
        self.aps.is_empty()
    }
}

/// A cached plan plus its last-touched stamp for LRU eviction. The stamp
/// is atomic so hits can bump it under the shared (read) lock.
#[derive(Debug)]
struct PlanSlot {
    plan: Arc<ScanPlan>,
    last_used: AtomicU64,
}

/// Shared, thread-safe, LRU-bounded cache of scan plans for popular cells.
///
/// Reads take a shared lock and bump the entry's recency stamp; a miss
/// builds the plan *outside* any lock (plans are pure functions of
/// world + key, so concurrent builders produce identical plans) and
/// publishes it under the write lock, evicting the least-recently-used
/// cell when the cache is at capacity. Which keys are resident can vary
/// with thread scheduling, but the plan *content* per key never does, so
/// eviction preserves the campaign's cross-thread determinism.
#[derive(Debug)]
pub struct ScanPlanCache {
    shared: RwLock<HashMap<PlanKey, PlanSlot>>,
    /// Monotone logical clock stamped onto entries as they are touched.
    tick: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

impl Default for ScanPlanCache {
    fn default() -> ScanPlanCache {
        ScanPlanCache::new()
    }
}

impl ScanPlanCache {
    /// New empty cache with the default capacity.
    pub fn new() -> ScanPlanCache {
        ScanPlanCache::with_capacity(SHARED_PLAN_CAP)
    }

    /// New empty cache holding at most `cap` plans (minimum 1).
    pub fn with_capacity(cap: usize) -> ScanPlanCache {
        ScanPlanCache {
            shared: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: cap.max(1),
        }
    }

    /// The plan for a quantized position, built and published on miss.
    pub fn plan(&self, world: &ApWorld, key: PlanKey) -> Arc<ScanPlan> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = self.shared.read().get(&key) {
            slot.last_used.store(now, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&slot.plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(world.build_scan_plan(world.plan_cell_centre(key)));
        let mut w = self.shared.write();
        if let Some(slot) = w.get(&key) {
            slot.last_used.store(now, Ordering::Relaxed);
            return Arc::clone(&slot.plan);
        }
        if w.len() >= self.cap {
            // Evict the stalest cell; ties break on the key so eviction
            // order is deterministic for a deterministic access sequence.
            let victim = w
                .iter()
                .map(|(k, s)| (s.last_used.load(Ordering::Relaxed), *k))
                .min()
                .map(|(_, k)| k);
            if let Some(k) = victim {
                w.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        w.insert(key, PlanSlot { plan: Arc::clone(&built), last_used: AtomicU64::new(now) });
        built
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.shared.read().len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of plans retained at once.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether a plan for `key` is currently resident (recency untouched).
    pub fn contains(&self, key: PlanKey) -> bool {
        self.shared.read().contains_key(&key)
    }

    /// Number of plans evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups served from a resident plan (shared-lock fast path).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a plan (racy double-builds both count).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Synthetic plan of `n` entries mixing indoor (span > 0) and outdoor
    /// (span == 0) rows, with means straddling the scan floor so both
    /// emitted and suppressed observations occur.
    fn synthetic_plan(n: usize) -> ScanPlan {
        ScanPlan::from_entries((0..n).map(|i| PlanEntry {
            ap: ApId(i as u32),
            radio: (i % 2) as u8,
            band: if i % 2 == 0 { Band::Ghz24 } else { Band::Ghz5 },
            channel: Channel((i % 13 + 1) as u8),
            public: i % 3 == 0,
            sigma_db: 4.0 + (i % 5) as f64,
            mean_db: -60.0 - (i % 40) as f64,
            span_db: if i % 2 == 0 { 12.0 } else { 0.0 },
        }))
    }

    #[test]
    fn blocked_sample_matches_scalar_for_every_tail_shape() {
        // Non-multiples of SAMPLE_BLOCK exercise the tail block; the plans
        // mix indoor and outdoor entries so the uniform draw is skipped
        // for some entries, stressing the RNG stream alignment.
        for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 200] {
            let plan = synthetic_plan(n);
            let mut obs_blocked = Vec::new();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut gauss = GaussianPair::new();
            for _ in 0..20 {
                plan.sample(&mut rng, &mut gauss, |e, r| obs_blocked.push((*e, r)));
            }
            let mut obs_scalar = Vec::new();
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut gauss = GaussianPair::new();
            for _ in 0..20 {
                plan.sample_scalar(&mut rng, &mut gauss, |e, r| obs_scalar.push((*e, r)));
            }
            assert_eq!(obs_blocked, obs_scalar, "n = {n}");
            // The shared RNG stream must also end at the same point.
            assert_eq!(rng.gen_range(0..u64::MAX), {
                let mut rng2 = ChaCha8Rng::seed_from_u64(42);
                let mut gauss2 = GaussianPair::new();
                for _ in 0..20 {
                    plan.sample_scalar(&mut rng2, &mut gauss2, |_, _| {});
                }
                rng2.gen_range(0..u64::MAX)
            });
        }
    }

    #[test]
    fn all_outdoor_plan_draws_no_uniforms() {
        // An all-outdoor plan (span == 0 everywhere) must leave u = 0 and
        // read only the gaussian stream, matching the scalar path exactly.
        let plan = ScanPlan::from_entries((0..70).map(|i| PlanEntry {
            ap: ApId(i),
            radio: 0,
            band: Band::Ghz24,
            channel: Channel(1),
            public: false,
            sigma_db: 6.0,
            mean_db: -80.0,
            span_db: 0.0,
        }));
        let run = |scalar: bool| {
            let mut out = Vec::new();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut gauss = GaussianPair::new();
            if scalar {
                plan.sample_scalar(&mut rng, &mut gauss, |e, r| out.push((e.ap, r)));
            } else {
                plan.sample(&mut rng, &mut gauss, |e, r| out.push((e.ap, r)));
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn entries_round_trip_push() {
        let plan = synthetic_plan(9);
        assert_eq!(plan.len(), 9);
        assert!(!plan.is_empty());
        let rows: Vec<PlanEntry> = plan.entries().collect();
        assert_eq!(ScanPlan::from_entries(rows.iter().copied()), plan);
        assert_eq!(plan.entry(4), rows[4]);
    }
}
