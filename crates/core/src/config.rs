//! NIFDY unit configuration: the four paper parameters plus extensions.

use std::fmt;

/// A violated [`NifdyConfig`] constraint, reported by
/// [`NifdyConfig::validate`] and [`NifdyConfigBuilder::build`].
///
/// Every variant names the parameter at fault, so callers sweeping
/// parameter grids can match on the reason instead of parsing a panic
/// string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `O = 0`: the OPT needs at least one entry.
    ZeroOptEntries,
    /// `B = 0`: the outgoing pool needs at least one buffer.
    ZeroPoolEntries,
    /// `W < 2` with bulk dialogs enabled (acks cover half-windows).
    WindowTooSmall {
        /// The rejected window.
        window: u8,
    },
    /// `W` odd with bulk dialogs enabled (acks cover half-windows).
    WindowOdd {
        /// The rejected window.
        window: u8,
    },
    /// `W > 64`: too large for the wire sequence space.
    WindowTooLarge {
        /// The rejected window.
        window: u8,
    },
    /// `retx_timeout = Some(0)` would retransmit every cycle.
    ZeroRetxTimeout,
    /// `retx_budget = Some(0)` would fail every packet on its first
    /// timeout.
    ZeroRetxBudget,
    /// `adaptive_rto` without a `retx_timeout` to seed the initial RTO.
    AdaptiveRtoWithoutTimeout,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroOptEntries => write!(f, "the OPT needs at least one entry"),
            ConfigError::ZeroPoolEntries => {
                write!(f, "the outgoing pool needs at least one buffer")
            }
            ConfigError::WindowTooSmall { window } => {
                write!(f, "bulk dialogs need a window of at least 2 (got {window})")
            }
            ConfigError::WindowOdd { window } => write!(
                f,
                "the window must be even (acks cover half-windows; got {window})"
            ),
            ConfigError::WindowTooLarge { window } => {
                write!(f, "window {window} too large for the wire sequence space")
            }
            ConfigError::ZeroRetxTimeout => write!(
                f,
                "retx_timeout of 0 would retransmit every cycle and flood the fabric"
            ),
            ConfigError::ZeroRetxBudget => write!(
                f,
                "a retry budget of 0 would fail every packet on its first timeout"
            ),
            ConfigError::AdaptiveRtoWithoutTimeout => {
                write!(f, "adaptive_rto needs a retx_timeout as the initial RTO")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a [`NifdyUnit`](crate::NifdyUnit).
///
/// The paper tunes NIFDY to each network with four parameters:
///
/// * `O` — size of the outstanding packet table (OPT),
/// * `B` — size of the outgoing buffer pool,
/// * `D` — maximum concurrent incoming bulk dialogs per receiver,
/// * `W` — receiver window size per bulk dialog.
///
/// Presets matching the paper's per-network best values are provided (e.g.
/// [`NifdyConfig::mesh`], [`NifdyConfig::fat_tree`]).
///
/// # Examples
///
/// ```
/// use nifdy::NifdyConfig;
///
/// let cfg = NifdyConfig::fat_tree();
/// assert_eq!((cfg.opt_entries, cfg.pool_entries), (8, 8));
/// let custom = NifdyConfig::builder()
///     .opt_entries(4)
///     .pool_entries(4)
///     .max_dialogs(1)
///     .window(2)
///     .build()
///     .expect("valid parameters");
/// assert_eq!(custom.window, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NifdyConfig {
    /// `O`: maximum outstanding scalar packets (OPT entries).
    pub opt_entries: u8,
    /// `B`: outgoing buffer-pool entries.
    pub pool_entries: u8,
    /// `D`: incoming bulk dialogs this node will grant. Zero disables bulk
    /// mode entirely (best for the butterfly, per §4.1).
    pub max_dialogs: u8,
    /// `W`: sliding-window size (and reorder buffers) per bulk dialog.
    /// Must be even and at least 2 when `max_dialogs > 0`, because combined
    /// acks cover half-windows.
    pub window: u8,
    /// Acknowledge scalar packets when they are *inserted* into the arrivals
    /// FIFO instead of when the processor accepts them — the paper's
    /// footnote 2 calls this "surprisingly less effective"; kept for the
    /// ablation benchmark.
    pub ack_on_insert: bool,
    /// Acknowledge every bulk packet individually instead of one combined
    /// ack per `W/2` packets — the §2.4.2 alternative sliding-window
    /// protocol; kept for the ablation benchmark.
    pub bulk_ack_every_packet: bool,
    /// §6.1 extension: piggyback pending acknowledgments on data packets
    /// headed to the same node instead of sending a standalone ack packet,
    /// "which should reduce network traffic". Costs one header bit plus the
    /// ack fields.
    pub piggyback_acks: bool,
    /// §6.2 lossy-network extension: retransmit unacknowledged packets after
    /// this many cycles. `None` assumes the reliable fabrics of §1.1. With
    /// [`adaptive_rto`](NifdyConfig::adaptive_rto) set, this is only the
    /// *initial* RTO; measured round trips take over from the first sample.
    /// `Some(0)` is rejected by validation (it would retransmit every cycle
    /// and flood the fabric).
    pub retx_timeout: Option<u64>,
    /// Adapt the retransmission timeout to measured round trips: the unit
    /// keeps a per-destination smoothed RTT and variance (EWMA, RFC
    /// 6298-style `srtt + 4·rttvar`), applies Karn's rule (no samples from
    /// retransmitted packets), and backs off exponentially — with a jittered
    /// cap at 20 000 cycles — on consecutive timeouts; estimates are clamped
    /// to at least 32 cycles.
    /// Without this flag the timeout is fixed at
    /// [`retx_timeout`](NifdyConfig::retx_timeout), as in the seed §6.2
    /// implementation.
    pub adaptive_rto: bool,
    /// Maximum retransmissions per packet before the unit gives up and
    /// surfaces a [`DeliveryFailure`](crate::DeliveryFailure) to the client.
    /// `None` retries forever (the seed behavior); `Some(0)` is rejected by
    /// validation.
    pub retx_budget: Option<u32>,
}

/// Arrivals FIFO capacity in packets: "with the NIFDY protocol, the
/// capacity of the arrivals queue is at most two packets".
pub(crate) const ARRIVALS_CAPACITY: usize = 2;

impl NifdyConfig {
    /// Starts a validating builder pre-loaded with the paper's summary
    /// recommendation (`O = 8, B = 16, D = 1, W = 8`); override whichever
    /// parameters the experiment sweeps and call
    /// [`build`](NifdyConfigBuilder::build).
    pub fn builder() -> NifdyConfigBuilder {
        NifdyConfigBuilder {
            cfg: NifdyConfig::base(8, 16, 1, 8),
        }
    }

    /// The unvalidated parameter record behind the builder and the named
    /// presets.
    fn base(opt_entries: u8, pool_entries: u8, max_dialogs: u8, window: u8) -> Self {
        NifdyConfig {
            opt_entries,
            pool_entries,
            max_dialogs,
            window,
            ack_on_insert: false,
            bulk_ack_every_packet: false,
            piggyback_acks: false,
            retx_timeout: None,
            adaptive_rto: false,
            retx_budget: None,
        }
    }

    /// A validated preset; the values come from the paper, so failure is a
    /// programming error.
    fn preset(o: u8, b: u8, d: u8, w: u8) -> Self {
        let cfg = NifdyConfig::base(o, b, d, w);
        debug_assert_eq!(cfg.validate(), Ok(()), "paper preset must validate");
        cfg
    }

    /// Conservative preset for low-volume, low-bisection wormhole meshes
    /// (§2.4.3: `O = 4, B = 4, D = 1, W = 2`).
    pub fn mesh() -> Self {
        NifdyConfig::preset(4, 4, 1, 2)
    }

    /// Generous preset for the full 4-ary fat tree (§2.4.3: "making the OPT
    /// large (O = 8) and the buffer pool large (B = 8)"; window sized by
    /// Equation 3).
    pub fn fat_tree() -> Self {
        NifdyConfig::preset(8, 8, 1, 4)
    }

    /// Preset for the CM-5-like fat tree: "smaller bulk windows than the
    /// full fat tree even though the round-trip latency is twice as great",
    /// because of its smaller volume and bisection bandwidth.
    pub fn cm5() -> Self {
        NifdyConfig::preset(8, 8, 1, 2)
    }

    /// Preset for the store-and-forward fat tree: per-hop latency of a full
    /// packet store makes the round trip enormous (~400 cycles), so Equation
    /// 3 calls for a deep window: `W >= 2·(400/60 − 1) ≈ 12`.
    pub fn store_and_forward_fat_tree() -> Self {
        NifdyConfig::preset(8, 16, 1, 12)
    }

    /// Preset for the butterfly: "the only network where it is best to have
    /// no bulk dialogs" (three-hop round trips, no alternative paths).
    pub fn butterfly() -> Self {
        NifdyConfig::preset(8, 8, 0, 2)
    }

    /// Preset for tori: mesh-like volume with wraparound links.
    pub fn torus() -> Self {
        NifdyConfig::preset(4, 4, 1, 2)
    }

    /// Builder: acknowledge on FIFO insert (ablation of footnote 2).
    pub fn with_ack_on_insert(mut self, on: bool) -> Self {
        self.ack_on_insert = on;
        self
    }

    /// Builder: piggyback acks on same-destination data packets (§6.1).
    pub fn with_piggyback_acks(mut self, on: bool) -> Self {
        self.piggyback_acks = on;
        self
    }

    /// Builder: acknowledge every bulk packet (§2.4.2 ablation).
    pub fn with_bulk_ack_every_packet(mut self, on: bool) -> Self {
        self.bulk_ack_every_packet = on;
        self
    }

    /// Builder: enable the §6.2 retransmission extension.
    pub fn with_retx_timeout(mut self, cycles: u64) -> Self {
        self.retx_timeout = Some(cycles);
        self
    }

    /// Builder: adapt the RTO to measured round trips (EWMA + variance,
    /// Karn's rule, exponential backoff with a jittered cap). Requires a
    /// [`retx_timeout`](NifdyConfig::retx_timeout) as the initial RTO.
    pub fn with_adaptive_rto(mut self, on: bool) -> Self {
        self.adaptive_rto = on;
        self
    }

    /// Builder: bound retransmissions per packet; exceeding the budget
    /// surfaces a typed [`DeliveryFailure`](crate::DeliveryFailure) instead
    /// of retrying forever.
    pub fn with_retx_budget(mut self, budget: u32) -> Self {
        self.retx_budget = Some(budget);
        self
    }

    /// Total hardware packet buffers this configuration implies
    /// (`B + D·W + arrivals`) — the figure the buffering-only baseline must
    /// match for a fair comparison (§3).
    pub fn total_buffers(&self) -> u16 {
        u16::from(self.pool_entries)
            + u16::from(self.max_dialogs) * u16::from(self.window)
            + ARRIVALS_CAPACITY as u16
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    /// Note that when `max_dialogs` is zero, bulk mode is disabled and the
    /// window parameter is ignored entirely — no window constraint applies.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // No `..`: a new field compiles only once constrained here or waived with `_`.
        let Self {
            opt_entries,
            pool_entries,
            max_dialogs,
            window,
            ack_on_insert: _,
            bulk_ack_every_packet: _,
            piggyback_acks: _,
            retx_timeout,
            adaptive_rto,
            retx_budget,
        } = *self;
        if opt_entries == 0 {
            return Err(ConfigError::ZeroOptEntries);
        }
        if pool_entries == 0 {
            return Err(ConfigError::ZeroPoolEntries);
        }
        if max_dialogs > 0 {
            if window < 2 {
                return Err(ConfigError::WindowTooSmall { window });
            }
            if !window.is_multiple_of(2) {
                return Err(ConfigError::WindowOdd { window });
            }
            if window > 64 {
                return Err(ConfigError::WindowTooLarge { window });
            }
        }
        if retx_timeout == Some(0) {
            return Err(ConfigError::ZeroRetxTimeout);
        }
        if retx_budget == Some(0) {
            return Err(ConfigError::ZeroRetxBudget);
        }
        if adaptive_rto && retx_timeout.is_none() {
            return Err(ConfigError::AdaptiveRtoWithoutTimeout);
        }
        Ok(())
    }
}

/// Validating builder for [`NifdyConfig`], created by
/// [`NifdyConfig::builder`].
///
/// Each parameter is set by name — no positional run of anonymous `u8`s to
/// transpose — and [`build`](NifdyConfigBuilder::build) reports the first
/// violated constraint as a typed [`ConfigError`] instead of panicking.
///
/// # Examples
///
/// ```
/// use nifdy::{ConfigError, NifdyConfig};
///
/// let cfg = NifdyConfig::builder()
///     .opt_entries(8)
///     .pool_entries(8)
///     .max_dialogs(1)
///     .window(4)
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.total_buffers(), 8 + 4 + 2);
///
/// // An odd window is rejected with a typed error...
/// let err = NifdyConfig::builder().window(3).build().unwrap_err();
/// assert_eq!(err, ConfigError::WindowOdd { window: 3 });
///
/// // ...unless bulk dialogs are disabled, which makes W irrelevant.
/// assert!(NifdyConfig::builder()
///     .max_dialogs(0)
///     .window(3)
///     .build()
///     .is_ok());
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the validated NifdyConfig"]
pub struct NifdyConfigBuilder {
    cfg: NifdyConfig,
}

impl NifdyConfigBuilder {
    /// Sets `O`, the outstanding packet table size.
    pub fn opt_entries(mut self, o: u8) -> Self {
        self.cfg.opt_entries = o;
        self
    }

    /// Sets `B`, the outgoing buffer-pool size.
    pub fn pool_entries(mut self, b: u8) -> Self {
        self.cfg.pool_entries = b;
        self
    }

    /// Sets `D`, the maximum concurrent incoming bulk dialogs. Zero
    /// disables bulk mode, making the window parameter irrelevant.
    pub fn max_dialogs(mut self, d: u8) -> Self {
        self.cfg.max_dialogs = d;
        self
    }

    /// Sets `W`, the per-dialog sliding-window size. Ignored (and exempt
    /// from validation) when `max_dialogs` is zero.
    pub fn window(mut self, w: u8) -> Self {
        self.cfg.window = w;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (see [`ConfigError`]).
    pub fn build(self) -> Result<NifdyConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl Default for NifdyConfig {
    /// The paper's summary recommendation: "an outstanding packet table of
    /// size 8 combined with a packet pool of 16 and a single bulk dialog
    /// with a window of 8 were more than enough resources for even large
    /// machines".
    fn default() -> Self {
        NifdyConfig::preset(8, 16, 1, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            NifdyConfig::default(),
            NifdyConfig::mesh(),
            NifdyConfig::fat_tree(),
            NifdyConfig::cm5(),
            NifdyConfig::store_and_forward_fat_tree(),
            NifdyConfig::butterfly(),
            NifdyConfig::torus(),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn total_buffers_counts_pool_window_and_arrivals() {
        let cfg = NifdyConfig::mesh();
        assert_eq!(cfg.total_buffers(), 4 + 2 + 2);
        let no_bulk = NifdyConfig::butterfly();
        assert_eq!(no_bulk.total_buffers(), 8 + 2);
    }

    #[test]
    fn builder_rejects_odd_windows_with_a_typed_error() {
        let err = NifdyConfig::builder()
            .opt_entries(4)
            .pool_entries(4)
            .max_dialogs(1)
            .window(3)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::WindowOdd { window: 3 });
    }

    #[test]
    fn builder_ignores_window_when_bulk_disabled() {
        // D = 0 disables bulk mode entirely, so W is exempt from the
        // even/minimum constraints.
        let cfg = NifdyConfig::builder()
            .max_dialogs(0)
            .window(7)
            .build()
            .expect("W irrelevant without dialogs");
        assert_eq!(cfg.max_dialogs, 0);
    }

    #[test]
    fn builder_reports_each_constraint() {
        let err = NifdyConfig::builder().opt_entries(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroOptEntries);
        let err = NifdyConfig::builder().pool_entries(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroPoolEntries);
        let err = NifdyConfig::builder()
            .max_dialogs(1)
            .window(66)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::WindowTooLarge { window: 66 });
    }

    #[test]
    fn builder_covers_the_four_positional_parameters() {
        // The builder is the only constructor: the paper's four headline
        // parameters round-trip by name, and the old shim's panic contract
        // is now a typed error.
        let ok = NifdyConfig::builder()
            .opt_entries(4)
            .pool_entries(4)
            .max_dialogs(1)
            .window(2)
            .build()
            .expect("valid");
        assert_eq!(ok, NifdyConfig::mesh());
        let err = NifdyConfig::builder()
            .opt_entries(4)
            .pool_entries(4)
            .max_dialogs(1)
            .window(3)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("window must be even"), "{err}");
    }

    #[test]
    fn butterfly_disables_bulk() {
        assert_eq!(NifdyConfig::butterfly().max_dialogs, 0);
    }

    #[test]
    fn zero_retx_timeout_is_rejected() {
        let cfg = NifdyConfig::mesh().with_retx_timeout(0);
        assert!(cfg.validate().is_err(), "Some(0) must not validate");
        assert!(NifdyConfig::mesh().with_retx_timeout(1).validate().is_ok());
    }

    #[test]
    fn zero_retry_budget_is_rejected() {
        let cfg = NifdyConfig::mesh()
            .with_retx_timeout(100)
            .with_retx_budget(0);
        assert!(cfg.validate().is_err(), "budget 0 must not validate");
        let ok = NifdyConfig::mesh()
            .with_retx_timeout(100)
            .with_retx_budget(1);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn adaptive_rto_needs_an_initial_timeout() {
        let cfg = NifdyConfig::mesh().with_adaptive_rto(true);
        assert!(cfg.validate().is_err());
        let ok = NifdyConfig::mesh()
            .with_retx_timeout(500)
            .with_adaptive_rto(true);
        assert!(ok.validate().is_ok());
    }
}
