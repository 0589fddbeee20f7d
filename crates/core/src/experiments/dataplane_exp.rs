//! Experiments F4 (data-plane throughput), F10 (rule-update latency) and
//! F17-lookup (linear scan vs compiled lookup engines).

use crate::experiments::ExperimentContext;
use crate::pipeline::INGEST_BATCH;
use crate::report::{dur, TextTable};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::CompiledTable;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::switch::{compute_pps, RunStats, Switch};
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::AclLayout;
use p4guard_rules::ternary::{range_to_prefixes, BytePrefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Match-key width in bytes.
    pub key_width: usize,
    /// Installed entries.
    pub entries: usize,
    /// Measured packets per second (relative simulator throughput).
    pub pps: f64,
    /// Fraction of the replayed trace dropped.
    pub drop_fraction: f64,
}

/// Sharded-gateway throughput on the test trace, end to end (pack,
/// replay, mid-run swap, drain). The per-frame ingest arm this used to be
/// compared against is retired; its number lives on as ledger row
/// `gateway.per_frame_pps`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayPoint {
    /// Worker shards.
    pub shards: usize,
    /// Frames per ingest [`FrameBatch`](p4guard_packet::arena::FrameBatch).
    pub ingest_batch: usize,
    /// End-to-end pps.
    pub batched_pps: f64,
}

/// Result of F4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Guard deployment measured on the test trace.
    pub guard_point: ThroughputPoint,
    /// Synthetic sweep over key widths (fixed 64 entries).
    pub key_width_sweep: Vec<ThroughputPoint>,
    /// Synthetic sweep over table sizes (fixed 8-byte key).
    pub table_size_sweep: Vec<ThroughputPoint>,
    /// Sharded gateway (absent in reports serialized before the batched
    /// hot path existed).
    #[serde(default)]
    pub gateway: Option<GatewayPoint>,
}

/// A one-stage ACL switch keyed on the first `key_width` window bytes,
/// holding `entries` random half-wildcard drop rules — the synthetic F4
/// setup.
pub fn synthetic_switch(key_width: usize, entries: usize, seed: u64) -> Switch {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = AclLayout {
        window: 64,
        offsets: (0..key_width).collect(),
        capacity: entries.max(1),
    }
    .switch("bench", ["acl"]);
    let acl = sw.stage_mut(0);
    for _ in 0..entries {
        let value: Vec<u8> = (0..key_width).map(|_| rng.gen()).collect();
        // Half-wildcard masks so some traffic matches.
        let mask: Vec<u8> = (0..key_width)
            .map(|_| if rng.gen::<bool>() { 0xff } else { 0x00 })
            .collect();
        acl.insert(MatchSpec::Ternary { value, mask }, Action::Drop, 1)
            .expect("within capacity");
    }
    sw
}

/// Runs F4 on the lab's guard and test trace.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f4(lab: &ExperimentContext) -> ThroughputReport {
    // Deployed-guard throughput on the real test trace.
    let detector = lab.guard(&lab.config);
    let guard = detector.guard();
    let control = guard.deploy(200_000).expect("rules fit");
    let point = |key_width: usize, entries: usize, stats: RunStats| ThroughputPoint {
        key_width,
        entries,
        pps: stats.pps,
        drop_fraction: stats.dropped as f64 / stats.packets.max(1) as f64,
    };
    let guard_stats = control.with_switch_mut(|sw| sw.run_trace(&lab.test));
    let guard_point = point(lab.config.k, guard.compiled.stats.entries, guard_stats);
    let measure = |key_width: usize, entries: usize| {
        let mut sw = synthetic_switch(key_width, entries, lab.seed);
        point(key_width, entries, sw.run_trace(&lab.test))
    };
    let key_width_sweep = [2usize, 4, 8, 16, 32, 64]
        .iter()
        .map(|&w| measure(w, 64))
        .collect();
    let table_size_sweep = [8usize, 32, 128, 512, 2048]
        .iter()
        .map(|&n| measure(8, n))
        .collect();

    // Sharded gateway: the same trained guard serving the same test
    // trace, timed around the whole serve (pack, replay, mid-run swap,
    // drain).
    const GATEWAY_SHARDS: usize = 4;
    let gw_config = p4guard_gateway::GatewayConfig::with_shards(GATEWAY_SHARDS);
    let t0 = Instant::now();
    let live = guard
        .serve_live(&lab.test, gw_config, None, None)
        .expect("live serve");
    let gateway = Some(GatewayPoint {
        shards: GATEWAY_SHARDS,
        ingest_batch: INGEST_BATCH,
        batched_pps: compute_pps(live.snapshot.totals.received as usize, t0.elapsed()),
    });

    ThroughputReport {
        guard_point,
        key_width_sweep,
        table_size_sweep,
        gateway,
    }
}

impl fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F4 — data-plane throughput (relative simulator pps)")?;
        writeln!(
            f,
            "deployed guard: key {} B, {} entries, {:.0} pps, {:.1}% dropped",
            self.guard_point.key_width,
            self.guard_point.entries,
            self.guard_point.pps,
            self.guard_point.drop_fraction * 100.0
        )?;
        let key_width = self.key_width_sweep.iter().map(|p| ("key-width", p));
        let table_size = self.table_size_sweep.iter().map(|p| ("table-size", p));
        let table = TextTable::of(
            key_width.chain(table_size),
            &[
                ("sweep", |(sweep, _)| sweep.to_string()),
                ("key bytes", |(_, p)| p.key_width.to_string()),
                ("entries", |(_, p)| p.entries.to_string()),
                ("pps", |(_, p)| format!("{:.0}", p.pps)),
            ],
        );
        write!(f, "{table}")?;
        if let Some(g) = &self.gateway {
            writeln!(
                f,
                "gateway ({} shards): {:.0} pps ({} frames per ingest batch)",
                g.shards, g.batched_pps, g.ingest_batch
            )?;
        }
        Ok(())
    }
}

/// One occupancy point of F10.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdatePoint {
    /// Entries already installed when the operations were measured.
    pub occupancy: usize,
    /// Mean insert latency.
    pub insert: Duration,
    /// Mean remove latency.
    pub remove: Duration,
}

/// Result of F10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateLatencyReport {
    /// Points in increasing occupancy.
    pub points: Vec<UpdatePoint>,
}

/// Runs F10: insert/remove latency as a function of table occupancy.
pub fn run_f10(seed: u64, occupancies: &[usize]) -> UpdateLatencyReport {
    const PROBE: usize = 64;
    let mut points = Vec::with_capacity(occupancies.len());
    for &occupancy in occupancies {
        // A table pre-filled to `occupancy` with headroom for the probe.
        let mut acl = AclLayout {
            window: 64,
            offsets: (0..8).collect(),
            capacity: occupancy + PROBE,
        }
        .table("acl");
        let exact = |rng: &mut StdRng| MatchSpec::Ternary {
            value: (0..8).map(|_| rng.gen()).collect(),
            mask: vec![0xff; 8],
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..occupancy {
            acl.insert(exact(&mut rng), Action::Drop, 1)
                .expect("capacity has headroom");
        }
        // Measure a probe batch of table inserts, then remove them.
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xf10);
        let probe: Vec<MatchSpec> = (0..PROBE).map(|_| exact(&mut probe_rng)).collect();
        let started = Instant::now();
        let insert = |spec| acl.insert(spec, Action::Drop, 1);
        let handles: Vec<_> = probe
            .into_iter()
            .map(insert)
            .collect::<Result<_, _>>()
            .expect("probe fits within headroom");
        let insert = started.elapsed() / PROBE as u32;
        let started = Instant::now();
        for handle in handles {
            acl.remove(handle).expect("handles valid");
        }
        let remove = started.elapsed() / PROBE as u32;
        points.push(UpdatePoint {
            occupancy,
            insert,
            remove,
        });
    }
    UpdateLatencyReport { points }
}

/// One (series, table size) measurement of F17-lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupPoint {
    /// The series the point belongs to: the match kind and, for ternary,
    /// how the table draws its masks.
    pub series: String,
    /// Match kind of the measured table.
    pub kind: MatchKind,
    /// Installed entries.
    pub entries: usize,
    /// Engine the table compiled to (`CompiledTable::strategy`).
    pub strategy: String,
    /// Lookups per second through the priority-ordered linear scan
    /// (`Table::peek`).
    pub scan_pps: f64,
    /// Lookups per second through the compiled engine.
    pub compiled_pps: f64,
    /// `compiled_pps / scan_pps`.
    pub speedup: f64,
}

/// Result of F17-lookup: scan vs compiled lookup cost as the table grows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupReport {
    /// Lookups timed per measurement.
    pub lookups: usize,
    /// Points, grouped by series in increasing entry count.
    pub points: Vec<LookupPoint>,
}

/// Match-key width of the F17-lookup tables (the paper's stage-1 window).
const F17_KEY_WIDTH: usize = 8;
/// Probe keys per measurement (half hits, half random).
const F17_KEYS: usize = 2048;
/// Timed passes over the probe keys.
const F17_ROUNDS: usize = 2;

/// How an F17 ternary table draws its rows (the other match kinds have
/// one shape each).
#[derive(Clone, Copy, PartialEq)]
enum Masks {
    /// Every row takes one of eight whole-byte masks.
    Shared,
    /// A random bit mask for every row: no two rows line up, the worst
    /// case for an index — nothing to share and nothing to skip.
    PerRow,
    /// The shape of a learned ruleset: a few leaf boxes (a byte range at
    /// some positions, the rest free), each lowered to the cross product
    /// of its per-byte prefix covers — the expansion
    /// `p4guard_rules::compile` applies to a tree path — at one priority,
    /// so a box's rows are contiguous in match order.
    LeafBoxes,
}

/// Rows of [`Masks::LeafBoxes`]: `(value, mask)` pairs, box after box,
/// cut off at `entries`.
fn leaf_box_rows(rng: &mut StdRng, entries: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rows = Vec::with_capacity(entries);
    while rows.len() < entries {
        // A leaf constrains the few bytes its path split on, to intervals
        // as narrow as the range series draws.
        let covers: Vec<Vec<BytePrefix>> = (0..F17_KEY_WIDTH)
            .map(|_| {
                if rng.gen_range(0..8) < 3 {
                    let lo: u8 = rng.gen();
                    range_to_prefixes(lo, lo.saturating_add(rng.gen_range(0..=32)))
                } else {
                    range_to_prefixes(0, 255)
                }
            })
            .collect();
        let mut product = vec![(Vec::new(), Vec::new())];
        for cover in &covers {
            product = product
                .iter()
                .flat_map(|(value, mask): &(Vec<u8>, Vec<u8>)| {
                    cover.iter().map(move |prefix| {
                        let (mut value, mut mask) = (value.clone(), mask.clone());
                        value.push(prefix.value & prefix.mask);
                        mask.push(prefix.mask);
                        (value, mask)
                    })
                })
                .take(entries - rows.len())
                .collect();
        }
        rows.append(&mut product);
    }
    rows
}

/// Builds an F17 table of `kind` with `entries` random entries plus the
/// probe-key stream used against it; a ternary table draws its rows as
/// `masks` says.
fn f17_fixture(kind: MatchKind, masks: Masks, entries: usize, seed: u64) -> (Table, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf11);
    let mut table = Table::new(
        "f17",
        kind,
        KeyLayout::window(F17_KEY_WIDTH),
        entries.max(1),
        Action::NoOp,
    );
    let leaf_rows = if masks == Masks::LeafBoxes {
        leaf_box_rows(&mut rng, entries)
    } else {
        Vec::new()
    };
    let mask_per_row = masks == Masks::PerRow;
    let pool: Vec<Vec<u8>> = (0..if mask_per_row { entries } else { 8 })
        .map(|_| {
            (0..F17_KEY_WIDTH)
                .map(|_| {
                    let bits: u8 = rng.gen();
                    if mask_per_row {
                        bits
                    } else {
                        0xff * (bits & 1)
                    }
                })
                .collect()
        })
        .collect();
    let mut hit_keys = Vec::with_capacity(entries);
    for i in 0..entries {
        let mut value: Vec<u8> = (0..F17_KEY_WIDTH).map(|_| rng.gen()).collect();
        let spec = match kind {
            MatchKind::Exact => MatchSpec::Exact(value.clone()),
            MatchKind::Ternary => {
                let mask = match leaf_rows.get(i) {
                    // The hit key is a random point of the row's cube.
                    Some((corner, mask)) => {
                        for ((byte, corner), mask) in value.iter_mut().zip(corner).zip(mask) {
                            *byte = corner | *byte & !mask;
                        }
                        mask.clone()
                    }
                    None => pool[i % pool.len()].clone(),
                };
                MatchSpec::Ternary {
                    value: value.clone(),
                    mask,
                }
            }
            // Prefix lengths from a small pool, like compiler-emitted
            // tables (one length per feature split), not one bucket per
            // possible length.
            MatchKind::Lpm => MatchSpec::Lpm {
                value: value.clone(),
                prefix_len: [8, 16, 24, 32, 40, 48, 56, 64][rng.gen_range(0..8)],
            },
            MatchKind::Range => {
                let hi: Vec<u8> = value
                    .iter()
                    .map(|&lo| lo.saturating_add(rng.gen_range(0..=32)))
                    .collect();
                MatchSpec::Range {
                    lo: value.clone(),
                    hi,
                }
            }
        };
        hit_keys.push(value);
        // A learned ruleset sits at one priority (its leaves are disjoint).
        let priority = if leaf_rows.is_empty() {
            rng.gen_range(0..4)
        } else {
            1
        };
        table
            .insert(spec, Action::Drop, priority)
            .expect("within capacity");
    }
    let keys = (0..F17_KEYS)
        .map(|i| {
            if i % 2 == 0 && !hit_keys.is_empty() {
                hit_keys[(i / 2) % hit_keys.len()].clone()
            } else {
                (0..F17_KEY_WIDTH).map(|_| rng.gen()).collect()
            }
        })
        .collect();
    (table, keys)
}

/// Runs F17-lookup: per series (the match kinds, ternary once per mask
/// shape), lookups/sec of the mutable table's linear scan vs the compiled
/// engine a published snapshot uses, as the entry count sweeps
/// `entry_counts`.
pub fn run_f17_lookup(seed: u64, entry_counts: &[usize]) -> LookupReport {
    let series = [
        ("exact", MatchKind::Exact, Masks::Shared),
        ("lpm", MatchKind::Lpm, Masks::Shared),
        ("range", MatchKind::Range, Masks::Shared),
        ("ternary, 8 shared masks", MatchKind::Ternary, Masks::Shared),
        ("ternary, a mask per row", MatchKind::Ternary, Masks::PerRow),
        (
            "ternary, leaf cross products",
            MatchKind::Ternary,
            Masks::LeafBoxes,
        ),
    ];
    let mut points = Vec::with_capacity(series.len() * entry_counts.len());
    for (name, kind, masks) in series {
        for &entries in entry_counts {
            let (table, keys) = f17_fixture(kind, masks, entries, seed);
            let compiled = CompiledTable::compile(&table);
            let mut probe = vec![0u8; F17_KEY_WIDTH];
            let lookups = F17_KEYS * F17_ROUNDS;

            let t0 = Instant::now();
            for _ in 0..F17_ROUNDS {
                for key in &keys {
                    black_box(table.peek(black_box(key)));
                }
            }
            let scan_pps = compute_pps(lookups, t0.elapsed());

            let t0 = Instant::now();
            for _ in 0..F17_ROUNDS {
                for key in &keys {
                    black_box(compiled.lookup(black_box(key), &mut probe));
                }
            }
            let compiled_pps = compute_pps(lookups, t0.elapsed());

            points.push(LookupPoint {
                series: name.to_owned(),
                kind,
                entries,
                strategy: compiled.strategy().to_owned(),
                scan_pps,
                compiled_pps,
                speedup: if scan_pps > 0.0 {
                    compiled_pps / scan_pps
                } else {
                    0.0
                },
            });
        }
    }
    LookupReport {
        lookups: F17_KEYS * F17_ROUNDS,
        points,
    }
}

impl fmt::Display for LookupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F17 — lookup cost: linear scan vs compiled engine ({} lookups/point)",
            self.lookups
        )?;
        let table = TextTable::of(
            &self.points,
            &[
                ("series", |p| p.series.clone()),
                ("entries", |p| p.entries.to_string()),
                ("engine", |p| p.strategy.clone()),
                ("scan pps", |p| format!("{:.0}", p.scan_pps)),
                ("compiled pps", |p| format!("{:.0}", p.compiled_pps)),
                ("speedup", |p| format!("{:.1}x", p.speedup)),
            ],
        );
        write!(f, "{table}")
    }
}

impl fmt::Display for UpdateLatencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F10 — rule-update latency vs table occupancy")?;
        let table = TextTable::of(
            &self.points,
            &[
                ("occupancy", |p| p.occupancy.to_string()),
                ("insert (mean)", |p| dur(p.insert)),
                ("remove (mean)", |p| dur(p.remove)),
            ],
        );
        write!(f, "{table}")
    }
}
