//! Adaptive retransmission-timeout estimation (RFC 6298 style).

/// Floor for the adaptive RTO in cycles: guards against spuriously
/// retransmitting when the measured round trip is tiny.
pub(crate) const RTO_MIN: u64 = 32;

/// Cap for the adaptive RTO in cycles: exponential backoff saturates here
/// (plus a small random jitter to de-synchronize senders).
pub(crate) const RTO_MAX: u64 = 20_000;

/// Smoothed round-trip estimator for one destination.
///
/// Maintains an exponentially weighted moving average of the round trip
/// (`srtt`) and its mean deviation (`rttvar`) in integer cycles, exactly as
/// TCP's retransmission-timer computation does: the first sample sets
/// `srtt = r, rttvar = r/2`; subsequent samples use gains of 1/8 and 1/4.
/// The suggested timeout is `srtt + 4·rttvar`.
///
/// Karn's rule is the *caller's* job: never feed a sample measured from a
/// packet that was retransmitted (its ack is ambiguous).
///
/// # Examples
///
/// ```
/// use nifdy::RttEstimator;
///
/// let mut est = RttEstimator::default();
/// assert_eq!(est.rto(), None); // no samples yet
/// est.sample(100);
/// assert_eq!(est.rto(), Some(300)); // 100 + 4 * 50
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimator {
    /// Smoothed RTT in cycles; `None` until the first sample.
    srtt: Option<u64>,
    /// Mean deviation of the RTT in cycles.
    rttvar: u64,
}

impl RttEstimator {
    /// Feeds one round-trip measurement of `rtt` cycles.
    pub fn sample(&mut self, rtt: u64) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let dev = srtt.abs_diff(rtt);
                // rttvar = 3/4 rttvar + 1/4 dev ; srtt = 7/8 srtt + 1/8 rtt
                self.rttvar = (3 * self.rttvar + dev) / 4;
                self.srtt = Some((7 * srtt + rtt) / 8);
            }
        }
    }

    /// The suggested timeout `srtt + 4·rttvar`, or `None` before the first
    /// sample (callers fall back to their configured initial RTO).
    pub fn rto(&self) -> Option<u64> {
        self.srtt.map(|s| s + 4 * self.rttvar)
    }

    /// The smoothed round trip, if any sample has arrived.
    pub fn srtt(&self) -> Option<u64> {
        self.srtt
    }

    /// The current mean deviation of the round trip (zero before the first
    /// sample).
    pub fn rttvar(&self) -> u64 {
        self.rttvar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut est = RttEstimator::default();
        est.sample(200);
        assert_eq!(est.srtt(), Some(200));
        assert_eq!(est.rto(), Some(200 + 4 * 100));
    }

    #[test]
    fn steady_samples_converge_and_tighten() {
        let mut est = RttEstimator::default();
        for _ in 0..100 {
            est.sample(120);
        }
        let srtt = est.srtt().expect("sampled");
        assert!((115..=125).contains(&srtt), "srtt {srtt}");
        // Constant samples drive the deviation toward zero, so the RTO
        // approaches the RTT itself.
        assert!(est.rto().expect("sampled") < 160);
    }

    #[test]
    fn jittery_samples_widen_the_timeout() {
        let mut steady = RttEstimator::default();
        let mut jittery = RttEstimator::default();
        for i in 0..100u64 {
            steady.sample(150);
            jittery.sample(if i % 2 == 0 { 50 } else { 250 });
        }
        assert!(
            jittery.rto().expect("sampled") > steady.rto().expect("sampled"),
            "variance must widen the RTO"
        );
    }

    #[test]
    fn adapts_downward_after_an_outlier() {
        let mut est = RttEstimator::default();
        est.sample(2_000);
        for _ in 0..200 {
            est.sample(100);
        }
        assert!(est.rto().expect("sampled") < 400, "rto {:?}", est.rto());
    }
}
