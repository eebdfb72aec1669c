//! Canonical configuration fingerprints — the binding-digest normal
//! form shared by shard frames and the campaign service cache.
//!
//! A *binding digest* hashes a canonical byte stream of everything a
//! result depends on (seed, runs, VR selection, prefilter, lead-time
//! model, cell identities) with FNV-1a, so a frame from a different
//! campaign can never fold. The shard coordinator binds its frames with
//! it, and the campaign service (`crates/service`) keys its
//! content-addressed result cache and its sweep journal with it. Both
//! build the stream through [`Canon`], so there is one normal form.
//!
//! A cell is encoded **by value**. [`Canon::push_params`] destructures
//! `SimParams` and every nested struct with public fields; types that
//! keep their fields private to their own crate (the I/O models and the
//! predictor) hand them over through a `for_each_word` method. Every
//! `f64` is written as its bit pattern, every enum as a fixed tag byte
//! plus its payload, every name as a length-prefixed string. No text is
//! rendered and no float is formatted. No destructuring uses `..`, so a
//! field added later does not compile until it is encoded. A change to
//! this layout bumps [`FINGERPRINT_VERSION`].
//!
//! Two digest widths serve two purposes:
//!
//! * [`Canon::digest`] — 64-bit FNV-1a, used by the shard binding digest
//!   where the coordinator *also* compares every structural field, so
//!   the digest is a tamper check, not the identity.
//! * [`Canon::fingerprint`] — 128 bits from two independently seeded
//!   FNV-1a passes, used where the digest **is** the identity (cache
//!   keys, journal headers): a 64-bit birthday collision at cache scale
//!   would silently serve the wrong cell, so the key is wide.

use pckpt_failure::generator::NodeSelection;
use pckpt_failure::{FailureDistribution, Projection};
use pckpt_ioperf::IoHierarchy;
use pckpt_workloads::Application;

use crate::config::{BackgroundTraffic, CoordinationPolicy, ModelKind, SimParams};
use crate::iosim::PfsMode;
use crate::oci::SigmaPolicy;
use crate::prefilter::Prefilter;
use crate::runner::{GridCell, RunnerConfig};

/// Version field folded into every cell/campaign fingerprint. Bump when
/// the canonical encoding (or anything the simulation semantics bind
/// to) changes incompatibly: old cache entries and journals then miss
/// and are recomputed instead of being misread.
///
/// Version 2 encodes parameters by value instead of by their `Debug`
/// text, and binds a campaign to its ordered cell fingerprints.
pub const FINGERPRINT_VERSION: u16 = 2;

/// FNV-1a offset basis (the standard 64-bit one).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Independent second basis for the fingerprint's low word (the golden
/// ratio, a nothing-up-my-sleeve constant).
const FNV_BASIS_ALT: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` from an explicit basis.
pub fn fnv1a_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` (the frame and binding digest primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_BASIS, bytes)
}

/// Both fingerprint words over `bytes`, continuing from the states
/// `(hi, lo)`, in one interleaved loop. Each word is bit-identical to
/// its own [`fnv1a_from`] pass; the two multiply chains are independent,
/// so they overlap.
fn fnv1a_pair((mut hi, mut lo): (u64, u64), bytes: &[u8]) -> (u64, u64) {
    for &b in bytes {
        hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    (hi, lo)
}

/// A 128-bit content-address: two independently seeded FNV-1a passes
/// over the same canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// High word (standard FNV-1a basis).
    pub hi: u64,
    /// Low word (alternate basis).
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint as one `u128` (map keys).
    pub fn as_u128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// 32-hex-digit rendering — stable cache file names.
    pub fn hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        // Names cache and journal files; no simulation reaches it (the
        // lint's call graph links it to the hot path only through the
        // common method name `get`). simlint: allow(no-alloc-in-hot-loop)
        let mut s = String::with_capacity(32);
        for word in [self.hi, self.lo] {
            for shift in (0..16).rev() {
                s.push(char::from(DIGITS[(word >> (4 * shift)) as usize & 0xf]));
            }
        }
        s
    }

    /// Parses [`hex`](Self::hex) output back.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        Some(Self {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// Canonical byte-buffer builder: every multi-byte value is rendered
/// little-endian, every variable-length field is length-prefixed, so
/// distinct field sequences can never collide structurally.
#[derive(Debug, Default, Clone)]
pub struct Canon {
    buf: Vec<u8>,
}

impl Canon {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn push_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn push_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn push_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (exact, `-0.0 ≠ 0.0`).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Appends one grid cell's full identity: its label, its model list
    /// and its parameters by value ([`push_params`](Self::push_params)).
    pub fn push_cell(&mut self, cell: &GridCell) {
        let GridCell {
            label,
            params,
            models,
        } = cell;
        self.push_str(label);
        self.push_u64(models.len() as u64);
        for &m in models {
            self.push_model(m);
        }
        self.push_params(params);
    }

    /// Appends every field of `params` by value, in declaration order:
    /// floats by bit pattern, enums as a tag byte plus payload, names
    /// length-prefixed, and the private fields of the I/O models and the
    /// predictor through their `for_each_word` listings (the whole PFS
    /// bandwidth matrix included).
    pub fn push_params(&mut self, params: &SimParams) {
        let SimParams {
            model,
            app,
            io,
            distribution,
            projection,
            predictor,
            lead_scale,
            lm_transfer_factor,
            lm_precopy_factor,
            lm_slowdown,
            dram_per_node,
            drain_concurrency,
            replacement_delay_secs,
            rate_window_hours,
            dynamic_oci,
            sigma_policy,
            coordination,
            background_traffic,
            node_selection,
            lead_error_cv,
            pfs_mode,
            horizon_factor,
        } = params;
        self.push_model(*model);

        let Application {
            name,
            nodes,
            checkpoint_total,
            compute_hours,
        } = app;
        self.push_str(name);
        self.push_u64(*nodes);
        self.push_f64(*checkpoint_total);
        self.push_f64(*compute_hours);

        let IoHierarchy { bb, pfs, net } = io;
        let mut word = |w| self.push_u64(w);
        bb.for_each_word(&mut word);
        pfs.for_each_word(&mut word);
        net.for_each_word(&mut word);

        let FailureDistribution {
            name,
            shape,
            scale_hours,
            system_nodes,
        } = distribution;
        self.push_str(name);
        self.push_f64(*shape);
        self.push_f64(*scale_hours);
        self.push_u64(*system_nodes);

        self.push_u8(match projection {
            Projection::MinStability => 0,
            Projection::Thinning => 1,
        });
        predictor.for_each_word(&mut |w| self.push_u64(w));
        for v in [
            lead_scale,
            lm_transfer_factor,
            lm_precopy_factor,
            lm_slowdown,
            dram_per_node,
        ] {
            self.push_f64(*v);
        }
        self.push_u64(*drain_concurrency);
        self.push_f64(*replacement_delay_secs);
        self.push_f64(*rate_window_hours);
        self.push_u8(u8::from(*dynamic_oci));
        self.push_u8(match sigma_policy {
            SigmaPolicy::LeadTimeOnly => 0,
            SigmaPolicy::AccuracyAware => 1,
        });
        self.push_u8(match coordination {
            CoordinationPolicy::Prioritized => 0,
            CoordinationPolicy::FifoQueue => 1,
            CoordinationPolicy::Uncoordinated => 2,
        });
        match background_traffic {
            None => self.push_u8(0),
            Some(BackgroundTraffic { mean_share, jitter }) => {
                self.push_u8(1);
                self.push_f64(*mean_share);
                self.push_f64(*jitter);
            }
        }
        match node_selection {
            NodeSelection::Uniform => self.push_u8(0),
            NodeSelection::Hotspot { fraction, weight } => {
                self.push_u8(1);
                self.push_f64(*fraction);
                self.push_f64(*weight);
            }
        }
        self.push_f64(*lead_error_cv);
        self.push_u8(match pfs_mode {
            PfsMode::Analytic => 0,
            PfsMode::Fluid => 1,
        });
        self.push_f64(*horizon_factor);
    }

    /// Appends a model's fixed tag byte.
    fn push_model(&mut self, model: ModelKind) {
        self.push_u8(match model {
            ModelKind::B => 0,
            ModelKind::M1 => 1,
            ModelKind::M2 => 2,
            ModelKind::P1 => 3,
            ModelKind::P2 => 4,
        });
    }

    /// The canonical bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// 64-bit FNV-1a of the canonical bytes.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.buf)
    }

    /// 128-bit content-address of the canonical bytes.
    pub fn fingerprint(&self) -> Fingerprint {
        let (hi, lo) = fnv1a_pair((FNV_BASIS, FNV_BASIS_ALT), &self.buf);
        Fingerprint { hi, lo }
    }
}

/// Renders the campaign-wide execution context every cell result binds
/// to: fingerprint version, seed, run count, VR selection, lead-time
/// model digest, and the analytic prefilter spec. The adaptive knobs are
/// deliberately *not* rendered here — adaptive campaigns are never
/// cached per cell (their per-cell results depend on grid-pooled pilot
/// variances), and callers must gate on `config.vr.adaptive.is_none()`
/// before fingerprinting.
fn push_context(
    canon: &mut Canon,
    config: &RunnerConfig,
    leads_digest: u64,
    prefilter: Option<&Prefilter>,
) {
    canon.push_u16(FINGERPRINT_VERSION);
    canon.push_u64(config.base_seed);
    canon.push_u64(config.runs as u64);
    canon.push_u8(u8::from(config.vr.antithetic));
    canon.push_u32(config.vr.strata);
    canon.push_u64(leads_digest);
    canon.push_str(&prefilter.map(|p| p.spec()).unwrap_or_default());
}

/// Content-address of one cell's complete simulated result under
/// `config`: the key of the service's result cache. It hashes the
/// execution context followed by the cell ([`Canon::push_cell`]).
///
/// Covers everything a cell's per-run result stream depends on — and,
/// by the grid-equivalence contract (`tests/grid_equivalence.rs`),
/// *nothing else*: a cell's aggregate is bit-identical regardless of
/// which other cells share the pool, which is exactly what makes
/// per-cell caching sound.
pub fn cell_fingerprint(
    cell: &GridCell,
    leads_digest: u64,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> Fingerprint {
    let mut canon = Canon::new();
    push_context(&mut canon, config, leads_digest, prefilter);
    canon.push_cell(cell);
    canon.fingerprint()
}

/// Every cell fingerprint plus the campaign fingerprint.
///
/// Cell `i`'s fingerprint equals [`cell_fingerprint`]: both FNV states
/// run over the context once, and each cell's bytes continue from them.
/// The campaign fingerprint — the identity a sweep journal binds to, so
/// a journal only ever resumes the exact campaign that wrote it — hashes
/// the context, the cell count and the ordered cell fingerprints
/// (`hi`, `lo` each), so no cell's bytes are hashed twice.
pub fn campaign_fingerprints(
    cells: &[GridCell],
    leads_digest: u64,
    config: &RunnerConfig,
    prefilter: Option<&Prefilter>,
) -> (Vec<Fingerprint>, Fingerprint) {
    let mut campaign = Canon::new();
    push_context(&mut campaign, config, leads_digest, prefilter);
    let context = fnv1a_pair((FNV_BASIS, FNV_BASIS_ALT), campaign.as_bytes());
    let mut cell_bytes = Canon::new();
    let fps: Vec<Fingerprint> = cells
        .iter()
        .map(|cell| {
            cell_bytes.buf.clear();
            cell_bytes.push_cell(cell);
            let (hi, lo) = fnv1a_pair(context, cell_bytes.as_bytes());
            Fingerprint { hi, lo }
        })
        .collect();
    campaign.push_u64(fps.len() as u64);
    for fp in &fps {
        campaign.push_u64(fp.hi);
        campaign.push_u64(fp.lo);
    }
    (fps, campaign.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_failure::Predictor;
    use pckpt_ioperf::{BurstBuffer, Network, NodeIoModel, PfsModel, GB, TB};

    fn cell(app: &str, scale: f64) -> GridCell {
        let mut params =
            SimParams::paper_defaults(ModelKind::B, Application::by_name(app).unwrap());
        params.lead_scale = scale;
        GridCell::new(params, &[ModelKind::B, ModelKind::P2])
            .with_label(format!("{app}@{scale}"))
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        let fp = Fingerprint { hi: 0x0123_4567_89ab_cdef, lo: 0xfedc_ba98_7654_3210 };
        assert_eq!(fp.hex(), "0123456789abcdeffedcba9876543210");
        assert_eq!(Fingerprint::from_hex(&fp.hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
    }

    #[test]
    fn fingerprint_words_match_separate_fnv_passes() {
        let mut canon = Canon::new();
        canon.push_str("interleaved");
        canon.push_f64(-0.0);
        let fp = canon.fingerprint();
        assert_eq!(fp.hi, fnv1a_from(FNV_BASIS, canon.as_bytes()));
        assert_eq!(fp.lo, fnv1a_from(FNV_BASIS_ALT, canon.as_bytes()));
        assert_eq!(canon.digest(), fp.hi);
    }

    #[test]
    fn cell_fingerprint_separates_every_axis() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let base = RunnerConfig::new(8, 42);
        let fp = |c: &GridCell, cfg: &RunnerConfig| cell_fingerprint(c, leads.digest(), cfg, None);
        let a = fp(&cell("XGC", 1.0), &base);
        assert_eq!(a, fp(&cell("XGC", 1.0), &base), "deterministic");
        assert_ne!(a, fp(&cell("XGC", 1.5), &base), "params differ");
        assert_ne!(a, fp(&cell("POP", 1.0), &base), "app differs");
        assert_ne!(a, fp(&cell("XGC", 1.0), &RunnerConfig::new(9, 42)), "runs differ");
        assert_ne!(a, fp(&cell("XGC", 1.0), &RunnerConfig::new(8, 43)), "seed differs");
        let mut vr = base;
        vr.vr.antithetic = true;
        assert_ne!(a, fp(&cell("XGC", 1.0), &vr), "VR mode differs");
        let pf = Some(Prefilter::new(0.2));
        assert_ne!(
            a,
            cell_fingerprint(&cell("XGC", 1.0), leads.digest(), &base, pf.as_ref()),
            "prefilter differs"
        );
        assert_ne!(a, cell_fingerprint(&cell("XGC", 1.0), 7, &base, None), "leads differ");
    }

    #[test]
    fn batched_fingerprints_match_the_one_shot_forms() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(8, 42);
        let cells = [cell("XGC", 1.0), cell("POP", 0.5), cell("XGC", 1.5)];
        let pf = Some(Prefilter::new(0.2));
        for prefilter in [None, pf.as_ref()] {
            let (fps, campaign) =
                campaign_fingerprints(&cells, leads.digest(), &cfg, prefilter);
            let mut expected = Canon::new();
            push_context(&mut expected, &cfg, leads.digest(), prefilter);
            expected.push_u64(cells.len() as u64);
            for (c, fp) in cells.iter().zip(&fps) {
                assert_eq!(*fp, cell_fingerprint(c, leads.digest(), &cfg, prefilter));
                expected.push_u64(fp.hi);
                expected.push_u64(fp.lo);
            }
            assert_eq!(campaign, expected.fingerprint());
        }
    }

    #[test]
    fn campaign_fingerprint_binds_cell_order() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(4, 1);
        let (a, b) = (cell("XGC", 1.0), cell("POP", 0.5));
        let campaign = |cells: &[GridCell], cfg: &RunnerConfig| {
            campaign_fingerprints(cells, leads.digest(), cfg, None).1
        };
        let fwd = campaign(&[a.clone(), b.clone()], &cfg);
        assert_ne!(fwd, campaign(&[b.clone(), a.clone()], &cfg), "order");
        assert_ne!(fwd, campaign(std::slice::from_ref(&a), &cfg), "cell count");
        assert_ne!(fwd, campaign(&[a, b], &RunnerConfig::new(4, 2)), "context");
        assert_ne!(campaign(&[], &cfg), campaign(&[], &RunnerConfig::new(4, 2)));
    }

    /// Cells that each change one `SimParams` field (every enum variant
    /// and payload included), the label or the model list, plus a few
    /// rebuilt duplicates of the base.
    fn oracle_table() -> Vec<GridCell> {
        let xgc = Application::by_name("XGC").unwrap();
        let base = SimParams::paper_defaults(ModelKind::B, xgc);
        let models = [ModelKind::B, ModelKind::P2];
        let mut out = vec![
            GridCell::new(base.clone(), &models),
            GridCell::new(SimParams::paper_defaults(ModelKind::B, xgc), &models),
            GridCell::new(base.clone(), &models).with_label("XGC@1"),
            GridCell::new(base.clone(), &[ModelKind::B]),
            GridCell::new(base.clone(), &[ModelKind::P2, ModelKind::B]),
            GridCell::new(base.clone(), &ModelKind::ALL),
        ];
        let mut vary = |f: &dyn Fn(&mut SimParams)| {
            let mut p = base.clone();
            f(&mut p);
            out.push(GridCell::new(p, &models));
        };
        for m in ModelKind::ALL {
            vary(&|p| p.model = m);
        }
        vary(&|p| p.app = Application::by_name("POP").unwrap());
        vary(&|p| p.app.name = "XGC2");
        vary(&|p| p.app.nodes += 1);
        vary(&|p| p.app.checkpoint_total *= 1.5);
        vary(&|p| p.app.compute_hours += 1.0);
        vary(&|p| p.io.bb = BurstBuffer::new(1.0 * TB, 2.1 * GB, 5.5 * GB));
        vary(&|p| p.io.bb = BurstBuffer::new(1.6 * TB, 3.0 * GB, 5.5 * GB));
        vary(&|p| p.io.bb = BurstBuffer::new(1.6 * TB, 2.1 * GB, 6.0 * GB));
        vary(&|p| p.io.net = Network::new(25.0 * GB, 8.0e-6 / 11.0));
        vary(&|p| p.io.net = Network::new(12.5 * GB, 1.0e-6));
        vary(&|p| p.io.pfs = PfsModel::from_parts(NodeIoModel::summit(), 2.5 * TB, 0.4));
        vary(&|p| p.io.pfs = PfsModel::from_parts(NodeIoModel::summit(), 2.0 * TB, 0.4));
        vary(&|p| p.io.pfs = PfsModel::from_parts(NodeIoModel::summit(), 2.5 * TB, 0.3));
        let pfs = |node| PfsModel::from_parts(node, 2.5 * TB, 0.4);
        vary(&|p| p.io.pfs = pfs(NodeIoModel::new(12.0 * GB, 8, 0.5 * GB, 0.006)));
        vary(&|p| p.io.pfs = pfs(NodeIoModel::new(13.5 * GB, 6, 0.5 * GB, 0.006)));
        vary(&|p| p.io.pfs = pfs(NodeIoModel::new(13.5 * GB, 8, 0.4 * GB, 0.006)));
        vary(&|p| p.io.pfs = pfs(NodeIoModel::new(13.5 * GB, 8, 0.5 * GB, 0.01)));
        for d in FailureDistribution::ALL {
            vary(&|p| p.distribution = d);
            vary(&|p| p.set_distribution(d));
        }
        vary(&|p| p.distribution.name = "renamed");
        vary(&|p| p.distribution.shape += 0.01);
        vary(&|p| p.distribution.scale_hours += 0.01);
        vary(&|p| p.distribution.system_nodes += 1);
        vary(&|p| p.projection = Projection::MinStability);
        vary(&|p| p.projection = Projection::Thinning);
        vary(&|p| p.predictor = p.predictor.with_false_negative_rate(0.3));
        vary(&|p| p.predictor = p.predictor.with_fp_share(0.1));
        vary(&|p| p.predictor = Predictor::new(0.85, 0.18, 1.0e-3));
        vary(&|p| p.lead_scale = 1.5);
        vary(&|p| p.lm_transfer_factor = 1.0);
        vary(&|p| p.lm_precopy_factor = 1.2);
        vary(&|p| p.lm_slowdown = 0.02);
        vary(&|p| p.dram_per_node = 256.0e9);
        vary(&|p| p.drain_concurrency = 64);
        vary(&|p| p.replacement_delay_secs = 60.0);
        vary(&|p| p.rate_window_hours = 100.0);
        vary(&|p| p.dynamic_oci = false);
        vary(&|p| p.sigma_policy = SigmaPolicy::LeadTimeOnly);
        vary(&|p| p.sigma_policy = SigmaPolicy::AccuracyAware);
        vary(&|p| p.coordination = CoordinationPolicy::Prioritized);
        vary(&|p| p.coordination = CoordinationPolicy::FifoQueue);
        vary(&|p| p.coordination = CoordinationPolicy::Uncoordinated);
        vary(&|p| p.background_traffic = None);
        vary(&|p| p.background_traffic = Some(BackgroundTraffic::new(0.5, 0.1)));
        vary(&|p| p.background_traffic = Some(BackgroundTraffic::new(0.6, 0.1)));
        vary(&|p| p.background_traffic = Some(BackgroundTraffic::new(0.5, 0.2)));
        vary(&|p| p.node_selection = NodeSelection::Uniform);
        vary(&|p| p.node_selection = NodeSelection::Hotspot { fraction: 0.1, weight: 4.0 });
        vary(&|p| p.node_selection = NodeSelection::Hotspot { fraction: 0.2, weight: 4.0 });
        vary(&|p| p.node_selection = NodeSelection::Hotspot { fraction: 0.1, weight: 8.0 });
        vary(&|p| p.lead_error_cv = 0.2);
        vary(&|p| p.pfs_mode = PfsMode::Analytic);
        vary(&|p| p.pfs_mode = PfsMode::Fluid);
        vary(&|p| p.horizon_factor = 8.0);
        out
    }

    /// The `Debug` text a cell used to be fingerprinted by is the
    /// oracle: two cells fingerprint equal exactly when their label,
    /// model list and `Debug` parameter text are equal.
    #[test]
    fn value_fingerprint_agrees_with_the_debug_oracle() {
        let leads = pckpt_failure::LeadTimeModel::desh_default();
        let cfg = RunnerConfig::new(8, 42);
        let table = oracle_table();
        let (fps, _) = campaign_fingerprints(&table, leads.digest(), &cfg, None);
        let keys: Vec<(String, Vec<ModelKind>, String)> = table
            .iter()
            .map(|c| (c.label.clone(), c.models.clone(), format!("{:?}", c.params)))
            .collect();
        let mut equal_pairs = 0;
        for i in 0..table.len() {
            for j in i + 1..table.len() {
                let same = keys[i] == keys[j];
                assert_eq!(fps[i] == fps[j], same, "cells {i} and {j}");
                equal_pairs += usize::from(same);
            }
        }
        // The table holds both directions: rebuilt duplicates and
        // field changes back to the default value must match the base.
        assert!(equal_pairs >= 10, "only {equal_pairs} equal pairs");
    }
}
