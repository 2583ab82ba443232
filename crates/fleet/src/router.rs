//! Device → cohort routing.
//!
//! A cohort is an independent ingest domain: its own
//! [`CollectionServer`](mobitrace_collector::CollectionServer) (and, when
//! live analysis is attached, its own engine), its own admission budget,
//! its own shed priority. Routing must be *stable* — a device's records
//! land in the same cohort for the lifetime of the fleet, so server-side
//! deduplication and per-device ordering keep working — and *uniform*, so
//! cohorts stay balanced without coordination.
//!
//! The hash is the splitmix64 finalizer over the device id.

use mobitrace_model::DeviceId;

/// Stable device → cohort router (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct CohortRouter {
    n_cohorts: u32,
}

impl CohortRouter {
    /// Router over `n_cohorts` cohorts (at least 1).
    pub fn new(n_cohorts: usize) -> CohortRouter {
        assert!(n_cohorts >= 1, "a fleet needs at least one cohort");
        assert!(n_cohorts <= u32::MAX as usize);
        CohortRouter { n_cohorts: n_cohorts as u32 }
    }

    /// Number of cohorts routed over.
    pub fn n_cohorts(&self) -> usize {
        self.n_cohorts as usize
    }

    /// The cohort this device's records always land in.
    pub fn cohort_of(&self, device: DeviceId) -> u32 {
        (splitmix64(u64::from(device.0)) % u64::from(self.n_cohorts)) as u32
    }
}

/// The splitmix64 output mixer — full-avalanche, so consecutive device
/// ids spread uniformly over cohorts.
fn splitmix64(id: u64) -> u64 {
    let mut x = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = CohortRouter::new(8);
        for d in 0..10_000u32 {
            let c = router.cohort_of(DeviceId(d));
            assert!(c < 8);
            assert_eq!(c, router.cohort_of(DeviceId(d)), "stable per device");
        }
    }

    #[test]
    fn cohorts_stay_balanced() {
        let router = CohortRouter::new(8);
        let mut counts = [0u32; 8];
        for d in 0..80_000u32 {
            counts[router.cohort_of(DeviceId(d)) as usize] += 1;
        }
        // Uniform expectation 10k per cohort; 5% tolerance is generous for
        // a full-avalanche mixer but catches any structural skew.
        for (c, &n) in counts.iter().enumerate() {
            assert!((9_500..=10_500).contains(&n), "cohort {c} skewed: {n}");
        }
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first two outputs of the reference splitmix64 generator
        // seeded with 0: its state steps by the golden-ratio increment.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn one_cohort_takes_every_device() {
        let router = CohortRouter::new(1);
        assert_eq!(router.n_cohorts(), 1);
        assert!([0, 1, 77, u32::MAX].into_iter().all(|d| router.cohort_of(DeviceId(d)) == 0));
    }

    #[test]
    #[should_panic(expected = "at least one cohort")]
    fn zero_cohorts_rejected() {
        CohortRouter::new(0);
    }
}
