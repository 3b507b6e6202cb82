//! Machine configurations.
//!
//! [`MachineConfig::merrimac`] reproduces Table 1 of the paper. The
//! sensitivity experiments of §4.4 replace the banked cache + DRAM-channel
//! memory system with a uniform latency/throughput structure, captured by
//! [`SensitivityConfig`].

use crate::WORD_BYTES;

/// A sustained word rate expressed as `words` per `cycles`, allowing
/// non-integral words-per-cycle rates (the 38.4 GB/s DRAM of Table 1 is 4.8
/// words/cycle at 1 GHz, i.e. 0.3 words/cycle per channel).
///
/// Components consume bandwidth through a token bucket: [`Throughput::tick`]
/// refills once per cycle, [`Throughput::try_consume`] spends one word of
/// credit.
///
/// ```
/// use sa_sim::Throughput;
/// // 3 words every 10 cycles.
/// let mut t = Throughput::new(3, 10);
/// let mut sent = 0;
/// for _ in 0..100 {
///     t.tick();
///     if t.try_consume() { sent += 1; }
/// }
/// assert_eq!(sent, 30);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Throughput {
    words: u32,
    cycles: u32,
    credit: u64,
}

impl Throughput {
    /// `words` transferred per `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if either value is zero.
    pub fn new(words: u32, cycles: u32) -> Throughput {
        assert!(words > 0 && cycles > 0, "throughput must be positive");
        Throughput {
            words,
            cycles,
            credit: 0,
        }
    }

    /// Average words per cycle as a float (for reporting).
    pub fn words_per_cycle(&self) -> f64 {
        f64::from(self.words) / f64::from(self.cycles)
    }

    /// The configured words-per-burst numerator. Two rates with equal
    /// averages but different burst shapes (3/10 vs 6/20) behave
    /// differently, so fingerprints need both raw terms.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// The configured cycles-per-burst denominator.
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Refill credit for one elapsed cycle.
    #[inline]
    pub fn tick(&mut self) {
        // Credit is in units of 1/cycles words; cap at one cycle's burst of
        // `words` so idle periods don't accumulate unbounded bursts.
        self.credit = (self.credit + u64::from(self.words))
            .min(u64::from(self.words) * u64::from(self.cycles));
    }

    /// Refill credit for `cycles` elapsed cycles at once, none of which spent
    /// any bandwidth. Equivalent to calling [`Throughput::tick`] `cycles`
    /// times with no intervening [`Throughput::try_consume`]; used by the
    /// event-horizon fast-forward to fold skipped idle cycles into the token
    /// bucket exactly.
    #[inline]
    pub fn tick_idle(&mut self, cycles: u64) {
        self.credit = self
            .credit
            .saturating_add(u64::from(self.words).saturating_mul(cycles))
            .min(u64::from(self.words) * u64::from(self.cycles));
    }

    /// Try to spend one word of bandwidth; returns whether it was available.
    #[inline]
    pub fn try_consume(&mut self) -> bool {
        if self.credit >= u64::from(self.cycles) {
            self.credit -= u64::from(self.cycles);
            true
        } else {
            false
        }
    }
}

/// Scatter-add unit parameters (one unit per stream-cache bank in the base
/// machine).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SaUnitConfig {
    /// Combining-store entries per unit (Table 1: 8).
    pub cs_entries: usize,
    /// Functional-unit latency in cycles (Table 1: 4). The FU is fully
    /// pipelined: one new addition may start each cycle.
    pub fu_latency: u32,
}

impl Default for SaUnitConfig {
    fn default() -> Self {
        SaUnitConfig {
            cs_entries: 8,
            fu_latency: 4,
        }
    }
}

/// Stream-cache parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of address-interleaved banks (Table 1: 8).
    pub banks: usize,
    /// Total capacity in bytes (Table 1: 1 MB).
    pub total_bytes: u64,
    /// Line size in bytes. Not listed in Table 1; 32 B (four words) matches
    /// the Imagine/Merrimac lineage and reproduces the hot-bank granularity
    /// of Figure 7.
    pub line_bytes: u64,
    /// Set associativity.
    pub ways: usize,
    /// Miss-status handling registers per bank.
    pub mshrs_per_bank: usize,
    /// Requests that can merge into one MSHR before it refuses.
    pub targets_per_mshr: usize,
    /// Access latency of a bank hit, in cycles.
    pub hit_latency: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            banks: 8,
            total_bytes: 1 << 20,
            line_bytes: 32,
            ways: 4,
            mshrs_per_bank: 8,
            targets_per_mshr: 8,
            hit_latency: 4,
        }
    }
}

impl CacheConfig {
    /// Capacity of one bank in bytes.
    pub fn bytes_per_bank(&self) -> u64 {
        self.total_bytes / self.banks as u64
    }

    /// Number of lines in one bank.
    pub fn lines_per_bank(&self) -> u64 {
        self.bytes_per_bank() / self.line_bytes
    }

    /// Number of sets in one bank.
    pub fn sets_per_bank(&self) -> u64 {
        self.lines_per_bank() / self.ways as u64
    }

    /// Words per cache line.
    pub fn words_per_line(&self) -> u64 {
        self.line_bytes / WORD_BYTES
    }

    /// Which bank serves `line_index`.
    ///
    /// Lines interleave across banks through an XOR-folded hash rather than
    /// a plain modulo — real memory systems do the same to keep
    /// power-of-two strides (such as the node-interleaved addresses of a
    /// multi-node run) from camping on one bank. Small index ranges still
    /// touch few banks, preserving the hot-bank effect of Figure 7.
    pub fn bank_of_line(&self, line_index: u64) -> usize {
        let folded = line_index ^ (line_index >> 3) ^ (line_index >> 6);
        (folded % self.banks as u64) as usize
    }
}

/// DRAM-interface parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of DRAM interface channels (Table 1: 16).
    pub channels: usize,
    /// Per-channel sustained data rate. Table 1's 38.4 GB/s peak over 16
    /// channels is 0.3 words/cycle/channel = 3 words per 10 cycles.
    pub channel_rate: Throughput,
    /// Internal DRAM banks per channel.
    pub banks_per_channel: usize,
    /// Open row size in bytes per internal bank.
    pub row_bytes: u64,
    /// Column access latency (row already open), cycles.
    pub t_cas: u32,
    /// Full row cycle (precharge + activate + access), cycles.
    pub t_rc: u32,
    /// Request queue depth per channel; memory-access scheduling reorders
    /// within this window (Rixner et al., cited by the paper).
    pub queue_depth: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 16,
            channel_rate: Throughput::new(3, 10),
            banks_per_channel: 4,
            row_bytes: 2048,
            t_cas: 12,
            t_rc: 36,
            queue_depth: 16,
        }
    }
}

impl DramConfig {
    /// Which channel serves `line_index` (XOR-folded interleave; see
    /// [`CacheConfig::bank_of_line`] for the rationale).
    pub fn channel_of_line(&self, line_index: u64) -> usize {
        let folded = line_index ^ (line_index >> 4) ^ (line_index >> 8);
        (folded % self.channels as u64) as usize
    }

    /// Peak bandwidth in GB/s at `ghz` GHz.
    pub fn peak_gbps(&self, ghz: f64) -> f64 {
        self.channel_rate.words_per_cycle() * self.channels as f64 * WORD_BYTES as f64 * ghz
    }
}

/// Address-generator parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AgConfig {
    /// Number of address generators (Table 1: 2).
    pub count: usize,
    /// Single-word requests each generator can issue per cycle. Two
    /// generators at 4 words/cycle saturate the 64 GB/s (8 words/cycle)
    /// stream cache of Table 1.
    pub width: u32,
    /// Fixed cost of starting a stream memory operation (priming the memory
    /// pipeline; §4.1 discusses its effect on software batch sizing).
    pub startup_cycles: u32,
}

impl Default for AgConfig {
    fn default() -> Self {
        AgConfig {
            count: 2,
            width: 4,
            startup_cycles: 60,
        }
    }
}

/// Compute-cluster parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ComputeConfig {
    /// Number of data-parallel execution clusters (Table 1: 16).
    pub clusters: usize,
    /// Peak floating-point operations per cycle over all clusters
    /// (Table 1: 128 — four multiply-adds per cluster per cycle).
    pub peak_flops_per_cycle: u32,
    /// Stream-register-file bandwidth in words per cycle (Table 1:
    /// 512 GB/s = 64 words/cycle).
    pub srf_words_per_cycle: u32,
    /// Stream-register-file capacity in bytes (Table 1: 1 MB).
    pub srf_bytes: u64,
    /// Fixed cost of launching a kernel: microcode load, stream-descriptor
    /// setup, and cluster pipeline fill. Several hundred cycles on
    /// Imagine/Merrimac-class machines; this constant is what makes small
    /// software batches unattractive (§4.1: "smaller batches do not
    /// amortize the latency of starting a stream operation").
    pub kernel_startup_cycles: u32,
}

impl Default for ComputeConfig {
    fn default() -> Self {
        ComputeConfig {
            clusters: 16,
            peak_flops_per_cycle: 128,
            srf_words_per_cycle: 64,
            srf_bytes: 1 << 20,
            kernel_startup_cycles: 250,
        }
    }
}

/// Inter-node network parameters (§4.5: input-queued crossbar with
/// back-pressure).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Per-node injection/ejection bandwidth in words per cycle. The paper
    /// evaluates `1` (low) and `8` (high).
    pub node_words_per_cycle: u32,
    /// Network traversal latency in cycles.
    pub hop_latency: u32,
    /// Input queue depth per node port.
    pub queue_depth: usize,
}

impl NetworkConfig {
    /// The paper's low-bandwidth configuration (1 word/cycle/node).
    pub fn low() -> NetworkConfig {
        NetworkConfig {
            node_words_per_cycle: 1,
            hop_latency: 50,
            queue_depth: 32,
        }
    }

    /// The paper's high-bandwidth configuration (8 words/cycle/node).
    pub fn high() -> NetworkConfig {
        NetworkConfig {
            node_words_per_cycle: 8,
            hop_latency: 50,
            queue_depth: 32,
        }
    }

    /// Every field as a flat JSON object for result-cache fingerprints (see
    /// [`MachineConfig::fingerprint_json`]).
    pub fn fingerprint_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push(
            "node_words_per_cycle",
            Json::UInt(u64::from(self.node_words_per_cycle)),
        );
        o.push("hop_latency", Json::UInt(u64::from(self.hop_latency)));
        o.push("queue_depth", Json::UInt(self.queue_depth as u64));
        o
    }

    /// Parse the object written by [`NetworkConfig::fingerprint_json`].
    ///
    /// Strict: every field is required and unknown keys are rejected, so a
    /// typo in a job spec fails loudly instead of silently meaning "default".
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing, mistyped, or unknown key.
    pub fn from_fingerprint_json(doc: &sa_telemetry::Json) -> Result<NetworkConfig, String> {
        let mut fields = sa_telemetry::Reader::new("network", doc)?;
        let cfg = NetworkConfig {
            node_words_per_cycle: fields.u32("node_words_per_cycle")?,
            hop_latency: fields.u32("hop_latency")?,
            queue_depth: fields.usize("queue_depth")?,
        };
        fields.finish()?;
        Ok(cfg)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::high()
    }
}

/// Full single-node machine description.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Clock frequency in GHz (Table 1: 1 GHz).
    pub ghz: f64,
    /// Stream-cache parameters.
    pub cache: CacheConfig,
    /// Scatter-add unit parameters (one unit per cache bank).
    pub sa: SaUnitConfig,
    /// DRAM interface parameters.
    pub dram: DramConfig,
    /// Address generator parameters.
    pub ag: AgConfig,
    /// Compute cluster parameters.
    pub compute: ComputeConfig,
    /// Request-lifecycle tracing: record the full stage-by-stage timeline of
    /// one in `req_sample` requests (0 = off, the default). Pure observation;
    /// never affects simulated time.
    pub req_sample: u64,
}

// `f64` keeps MachineConfig from deriving Eq mechanically; ghz is always a
// small exact literal so bitwise equality is the intended semantics.
impl Eq for MachineConfig {}

impl MachineConfig {
    /// The base configuration of Table 1 of the paper.
    pub fn merrimac() -> MachineConfig {
        MachineConfig {
            ghz: 1.0,
            cache: CacheConfig::default(),
            sa: SaUnitConfig::default(),
            dram: DramConfig::default(),
            ag: AgConfig::default(),
            compute: ComputeConfig::default(),
            req_sample: 0,
        }
    }

    /// Stream-cache bandwidth in GB/s (banks × 1 word/cycle).
    pub fn cache_gbps(&self) -> f64 {
        self.cache.banks as f64 * WORD_BYTES as f64 * self.ghz
    }

    /// Peak DRAM bandwidth in GB/s.
    pub fn dram_gbps(&self) -> f64 {
        self.dram.peak_gbps(self.ghz)
    }

    /// Every field of the configuration as one flat, insertion-ordered JSON
    /// object — the result cache's config fingerprint.
    ///
    /// Unlike the reporting-oriented config block in stats documents (which
    /// names only the commonly swept knobs), this covers *all* simulation
    /// parameters: any field that can change output bytes must change the
    /// fingerprint, or a stale cache entry would masquerade as a fresh run.
    /// Keep this in sync when adding config fields.
    pub fn fingerprint_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("ghz", Json::Num(self.ghz));
        o.push("cache.banks", Json::UInt(self.cache.banks as u64));
        o.push("cache.total_bytes", Json::UInt(self.cache.total_bytes));
        o.push("cache.line_bytes", Json::UInt(self.cache.line_bytes));
        o.push("cache.ways", Json::UInt(self.cache.ways as u64));
        o.push(
            "cache.mshrs_per_bank",
            Json::UInt(self.cache.mshrs_per_bank as u64),
        );
        o.push(
            "cache.targets_per_mshr",
            Json::UInt(self.cache.targets_per_mshr as u64),
        );
        o.push(
            "cache.hit_latency",
            Json::UInt(u64::from(self.cache.hit_latency)),
        );
        o.push("sa.cs_entries", Json::UInt(self.sa.cs_entries as u64));
        o.push("sa.fu_latency", Json::UInt(u64::from(self.sa.fu_latency)));
        o.push("dram.channels", Json::UInt(self.dram.channels as u64));
        o.push(
            "dram.channel_rate.words",
            Json::UInt(u64::from(self.dram.channel_rate.words())),
        );
        o.push(
            "dram.channel_rate.cycles",
            Json::UInt(u64::from(self.dram.channel_rate.cycles())),
        );
        o.push(
            "dram.banks_per_channel",
            Json::UInt(self.dram.banks_per_channel as u64),
        );
        o.push("dram.row_bytes", Json::UInt(self.dram.row_bytes));
        o.push("dram.t_cas", Json::UInt(u64::from(self.dram.t_cas)));
        o.push("dram.t_rc", Json::UInt(u64::from(self.dram.t_rc)));
        o.push("dram.queue_depth", Json::UInt(self.dram.queue_depth as u64));
        o.push("ag.count", Json::UInt(self.ag.count as u64));
        o.push("ag.width", Json::UInt(u64::from(self.ag.width)));
        o.push(
            "ag.startup_cycles",
            Json::UInt(u64::from(self.ag.startup_cycles)),
        );
        o.push("compute.clusters", Json::UInt(self.compute.clusters as u64));
        o.push(
            "compute.peak_flops_per_cycle",
            Json::UInt(u64::from(self.compute.peak_flops_per_cycle)),
        );
        o.push(
            "compute.srf_words_per_cycle",
            Json::UInt(u64::from(self.compute.srf_words_per_cycle)),
        );
        o.push("compute.srf_bytes", Json::UInt(self.compute.srf_bytes));
        o.push(
            "compute.kernel_startup_cycles",
            Json::UInt(u64::from(self.compute.kernel_startup_cycles)),
        );
        o.push("req_sample", Json::UInt(self.req_sample));
        o
    }

    /// Parse the object written by [`MachineConfig::fingerprint_json`] — the
    /// machine half of a serialized session spec.
    ///
    /// Strict by the same rule as the writer's "any field that can change
    /// output bytes must change the fingerprint": every field is required
    /// and unknown keys are rejected, so specs cannot drift out of sync with
    /// the config struct silently.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing, mistyped, out-of-range,
    /// or unknown key.
    pub fn from_fingerprint_json(doc: &sa_telemetry::Json) -> Result<MachineConfig, String> {
        let mut f = sa_telemetry::Reader::new("config", doc)?;
        let rate_words = f.u32("dram.channel_rate.words")?;
        let rate_cycles = f.u32("dram.channel_rate.cycles")?;
        if rate_words == 0 || rate_cycles == 0 {
            return Err("config: dram.channel_rate terms must be positive".into());
        }
        let cfg = MachineConfig {
            ghz: f.f64("ghz")?,
            cache: CacheConfig {
                banks: f.usize("cache.banks")?,
                total_bytes: f.u64("cache.total_bytes")?,
                line_bytes: f.u64("cache.line_bytes")?,
                ways: f.usize("cache.ways")?,
                mshrs_per_bank: f.usize("cache.mshrs_per_bank")?,
                targets_per_mshr: f.usize("cache.targets_per_mshr")?,
                hit_latency: f.u32("cache.hit_latency")?,
            },
            sa: SaUnitConfig {
                cs_entries: f.usize("sa.cs_entries")?,
                fu_latency: f.u32("sa.fu_latency")?,
            },
            dram: DramConfig {
                channels: f.usize("dram.channels")?,
                channel_rate: Throughput::new(rate_words, rate_cycles),
                banks_per_channel: f.usize("dram.banks_per_channel")?,
                row_bytes: f.u64("dram.row_bytes")?,
                t_cas: f.u32("dram.t_cas")?,
                t_rc: f.u32("dram.t_rc")?,
                queue_depth: f.usize("dram.queue_depth")?,
            },
            ag: AgConfig {
                count: f.usize("ag.count")?,
                width: f.u32("ag.width")?,
                startup_cycles: f.u32("ag.startup_cycles")?,
            },
            compute: ComputeConfig {
                clusters: f.usize("compute.clusters")?,
                peak_flops_per_cycle: f.u32("compute.peak_flops_per_cycle")?,
                srf_words_per_cycle: f.u32("compute.srf_words_per_cycle")?,
                srf_bytes: f.u64("compute.srf_bytes")?,
                kernel_startup_cycles: f.u32("compute.kernel_startup_cycles")?,
            },
            req_sample: f.u64("req_sample")?,
        };
        f.finish()?;
        Ok(cfg)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::merrimac()
    }
}

/// Configuration of the §4.4 sensitivity rig: a single scatter-add unit in
/// front of a uniform-latency, fixed-throughput memory, with no cache.
///
/// "In order to isolate and emphasize the sensitivity, we modify the baseline
/// machine model and provide a simpler memory system" — the rig strips the
/// machine to one address generator, one scatter-add unit with `cs_entries`
/// combining-store entries, and a memory pipe accepting one word every
/// `mem_interval` cycles with a flat `mem_latency`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SensitivityConfig {
    /// Combining-store entries (x-axis of Figures 11 and 12: 2–64).
    pub cs_entries: usize,
    /// Functional-unit latency in cycles (Figure 11 sweeps 2–16).
    pub fu_latency: u32,
    /// Flat memory latency in cycles (Figure 11 sweeps 8–256).
    pub mem_latency: u32,
    /// Minimum cycles between successive memory word accesses (Figure 12
    /// sweeps 1–16; Figure 11 holds it at 2).
    pub mem_interval: u32,
}

impl Default for SensitivityConfig {
    fn default() -> Self {
        SensitivityConfig {
            cs_entries: 8,
            fu_latency: 4,
            mem_latency: 16,
            mem_interval: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let m = MachineConfig::merrimac();
        assert_eq!(m.cache.banks, 8);
        assert_eq!(m.sa.cs_entries, 8);
        assert_eq!(m.sa.fu_latency, 4);
        assert_eq!(m.dram.channels, 16);
        assert_eq!(m.ag.count, 2);
        assert_eq!(m.ghz, 1.0);
        assert_eq!(m.compute.clusters, 16);
        assert_eq!(m.compute.peak_flops_per_cycle, 128);
        assert_eq!(m.compute.srf_bytes, 1 << 20);
        assert_eq!(m.cache.total_bytes, 1 << 20);
        // Table 1 bandwidth figures.
        assert!((m.dram_gbps() - 38.4).abs() < 1e-9, "got {}", m.dram_gbps());
        assert!((m.cache_gbps() - 64.0).abs() < 1e-9);
        let srf_gbps = m.compute.srf_words_per_cycle as f64 * 8.0 * m.ghz;
        assert!((srf_gbps - 512.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_rate_is_exact() {
        let mut t = Throughput::new(3, 10);
        let mut sent = 0;
        for _ in 0..1000 {
            t.tick();
            while t.try_consume() {
                sent += 1;
            }
        }
        assert_eq!(sent, 300);
        assert!((t.words_per_cycle() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn throughput_full_rate() {
        let mut t = Throughput::new(1, 1);
        t.tick();
        assert!(t.try_consume());
        assert!(!t.try_consume(), "only one word per cycle");
    }

    #[test]
    fn tick_idle_matches_repeated_ticks() {
        // tick_idle(k) must be indistinguishable from k no-consume ticks for
        // any starting credit, or fast-forward would perturb DRAM pacing.
        for drain in 0..4 {
            let mut bulk = Throughput::new(3, 10);
            let mut step = Throughput::new(3, 10);
            for _ in 0..drain {
                bulk.tick();
                step.tick();
                bulk.try_consume();
                step.try_consume();
            }
            for k in [0u64, 1, 2, 7, 1_000] {
                let mut b = bulk;
                let mut s = step;
                b.tick_idle(k);
                for _ in 0..k {
                    s.tick();
                }
                assert_eq!(b, s, "drain={drain} k={k}");
            }
        }
    }

    #[test]
    fn throughput_burst_is_capped() {
        let mut t = Throughput::new(1, 4);
        // Long idle period...
        for _ in 0..100 {
            t.tick();
        }
        // ...must not allow more than one immediate word (credit cap).
        assert!(t.try_consume());
        assert!(!t.try_consume());
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn throughput_zero_panics() {
        let _ = Throughput::new(0, 1);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig::default();
        assert_eq!(c.bytes_per_bank(), 128 << 10);
        assert_eq!(c.lines_per_bank(), 4096);
        assert_eq!(c.sets_per_bank(), 1024);
        assert_eq!(c.words_per_line(), 4);
        assert_eq!(c.bank_of_line(0), 0);
        // The XOR fold is a bijection of the low bits within each group of
        // `banks` lines: consecutive lines cover all banks.
        let covered: std::collections::HashSet<usize> = (0..8).map(|l| c.bank_of_line(l)).collect();
        assert_eq!(covered.len(), 8, "8 consecutive lines hit 8 distinct banks");
        // Node-interleaved strides (every 8th line) must not camp on one
        // bank — the reason for the fold.
        let strided: std::collections::HashSet<usize> =
            (0..64).map(|i| c.bank_of_line(i * 8)).collect();
        assert!(strided.len() >= 4, "strided lines spread over banks");
    }

    #[test]
    fn dram_mapping() {
        let d = DramConfig::default();
        let covered: std::collections::HashSet<usize> =
            (0..16).map(|l| d.channel_of_line(l)).collect();
        assert_eq!(covered.len(), 16, "16 consecutive lines hit 16 channels");
    }

    #[test]
    fn network_presets() {
        assert_eq!(NetworkConfig::low().node_words_per_cycle, 1);
        assert_eq!(NetworkConfig::high().node_words_per_cycle, 8);
    }
}
