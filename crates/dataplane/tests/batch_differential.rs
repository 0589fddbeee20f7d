//! Differential property suite pinning the batched pipeline path to the
//! per-frame path: for randomized rulesets (all four match kinds, priority
//! ties, multiple stages) and randomized frame batches — including
//! parser-rejected runts — `process_batch_with` must produce the same
//! verdict sequence, the same counter block (totals, per-reason drop
//! counts and per-stage hit counters are all fields of it), and the same
//! frame-order verdict report stream as calling `process_with` once per
//! frame. A fixed case beside it walks stages whose key layouts repeat —
//! the compiled walkers gather a key once per run of equal layouts, the
//! batched one once per frame under a vote —
//! against the mutable switch, which gathers at every stage, another
//! walks stages at a learned guard's scale, whose rows carry a summary,
//! and a last one votes over distinct trees with mixed key layouts, which
//! the batched walker answers from one fused probe per frame.

use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::compiled::LookupOutcome;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::pipeline::BatchScratch;
use p4guard_dataplane::switch::{Switch, SwitchCounters};
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_packet::arena::FrameArena;
use p4guard_rules::ternary::range_to_prefixes;
use p4guard_telemetry::{FrameSampler, TelemetrySink, VerdictKind};
use proptest::collection;
use proptest::prelude::*;

const KINDS: [MatchKind; 4] = [
    MatchKind::Exact,
    MatchKind::Ternary,
    MatchKind::Lpm,
    MatchKind::Range,
];

fn action_for(selector: u8) -> Action {
    match selector % 6 {
        0 | 5 => Action::Drop,
        1 => Action::Forward(u16::from(selector)),
        2 => Action::Mirror(u16::from(selector)),
        3 => Action::Count(u32::from(selector) % 4),
        _ => Action::NoOp,
    }
}

fn spec_for(kind: MatchKind, width: usize, a: &[u8], b: &[u8], plen: usize) -> MatchSpec {
    let a = &a[..width];
    let b = &b[..width];
    match kind {
        MatchKind::Exact => MatchSpec::Exact(a.to_vec()),
        MatchKind::Ternary => MatchSpec::Ternary {
            value: a.to_vec(),
            mask: b
                .iter()
                .map(|&m| [0x00, 0x0f, 0xf0, 0xff][m as usize % 4])
                .collect(),
        },
        MatchKind::Lpm => MatchSpec::Lpm {
            value: a.to_vec(),
            prefix_len: plen % (width * 8 + 1),
        },
        MatchKind::Range => MatchSpec::Range {
            lo: a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect(),
            hi: a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect(),
        },
    }
}

/// A sink that records every verdict report verbatim, so the test can
/// compare the exact call streams, order included. It also ticks the
/// deterministic frame sampler on every verdict, exactly as the registry
/// sink does, so the suite pins the sampled trace-id set across both
/// paths.
#[derive(Debug, Default)]
struct RecordingSink {
    verdicts: Vec<VerdictRecord>,
    sampler: Option<FrameSampler>,
    sampled_traces: Vec<u64>,
}

impl RecordingSink {
    fn with_sampler(sample_every: u64, seed: u64) -> Self {
        RecordingSink {
            sampler: Some(FrameSampler::new(sample_every, seed, 0, None)),
            ..RecordingSink::default()
        }
    }
}

/// One recorded `verdict` call: kind, frame digest, matched (stage, rank).
type VerdictRecord = (VerdictKind, u64, Option<(usize, u32)>);

impl TelemetrySink for RecordingSink {
    fn verdict(&mut self, verdict: VerdictKind, frame: &[u8], matched: Option<(usize, u32)>) {
        self.verdicts
            .push((verdict, p4guard_telemetry::frame_digest(frame), matched));
        if let Some(sampler) = self.sampler.as_mut() {
            self.sampled_traces.extend(sampler.tick());
        }
    }
}

proptest! {
    #[test]
    fn batched_path_equals_per_frame_path(
        stage_raws in collection::vec(
            (
                0usize..4, // kind selector
                1usize..=3, // key width
                collection::vec(
                    (
                        (
                            collection::vec(any::<u8>(), 3usize),
                            collection::vec(any::<u8>(), 3usize),
                        ),
                        (0i32..3, any::<u8>(), 0usize..=24),
                    ),
                    0..10,
                ),
                any::<u8>(), // default action selector
            ),
            1..3,
        ),
        raw_frames in collection::vec(collection::vec(any::<u8>(), 0..10), 1..40,),
        batch_cut in any::<u16>(),
        trace_seed in any::<u64>(),
        trace_stride in 1u64..8,
    ) {
        // Parser accepts frames of >= 2 bytes; shorter ones are rejected,
        // exercising the ParserReject lane of the batch.
        let mut sw = Switch::new("prop", ParserSpec::raw_window(2, 1), 9);
        for (kind_sel, width, raws, default_sel) in &stage_raws {
            let kind = KINDS[*kind_sel];
            let mut table = Table::new(
                "t",
                kind,
                KeyLayout::window(*width),
                raws.len().max(1),
                action_for(*default_sel),
            );
            for ((a, b), (priority, action_sel, plen)) in raws {
                table
                    .insert(
                        spec_for(kind, *width, a, b, *plen),
                        action_for(*action_sel),
                        *priority,
                    )
                    .expect("generated specs are valid");
            }
            sw.add_stage(table);
        }
        let pipeline = sw.read_pipeline(1);

        // Per-frame reference run.
        let mut per_counters = SwitchCounters::default();
        let mut per_sink = RecordingSink::with_sampler(trace_stride, trace_seed);
        let mut scratch = Vec::new();
        let per_verdicts: Vec<Verdict> = raw_frames
            .iter()
            .map(|f| pipeline.process_with(f, &mut per_counters, &mut scratch, &mut per_sink))
            .collect();

        // Batched runs: split into two batches at an arbitrary cut so the
        // scratch-reuse path across batch boundaries is covered, and as
        // one-frame batches — the shape per-frame ingest puts on the queue.
        let cut = usize::from(batch_cut) % raw_frames.len();
        let mut arena = FrameArena::new(256);
        let mut two_batches = Vec::new();
        for (i, f) in raw_frames.iter().enumerate() {
            arena.push(f);
            if i + 1 == cut {
                two_batches.push(arena.seal_batch());
            }
        }
        two_batches.push(arena.seal_batch());
        let one_frame_batches: Vec<_> = raw_frames
            .iter()
            .map(|f| {
                arena.push(f);
                arena.seal_batch()
            })
            .collect();

        for batches in [&two_batches, &one_frame_batches] {
            let mut batch_counters = SwitchCounters::default();
            let mut batch_sink = RecordingSink::with_sampler(trace_stride, trace_seed);
            let mut batch_scratch = BatchScratch::new();
            let mut batch_verdicts = Vec::new();
            for batch in batches {
                pipeline.process_batch_with(
                    batch.data(),
                    batch.spans(),
                    &mut batch_counters,
                    &mut batch_scratch,
                    &mut batch_verdicts,
                    &mut batch_sink,
                );
            }

            prop_assert_eq!(&batch_verdicts, &per_verdicts, "verdict sequence");
            prop_assert_eq!(&batch_counters, &per_counters, "counter block");
            prop_assert_eq!(&batch_sink.verdicts, &per_sink.verdicts, "verdict report order");
            // Same seed + stride → the deterministic sampler selects the
            // same report-stream positions and mints the same trace ids
            // on every path.
            prop_assert_eq!(
                &batch_sink.sampled_traces,
                &per_sink.sampled_traces,
                "sampled trace-id set"
            );
        }
        // At least one frame is sampled in every run (phase guarantees a
        // hit within the first `stride` frames... only when enough frames
        // exist).
        if raw_frames.len() as u64 >= trace_stride {
            prop_assert!(!per_sink.sampled_traces.is_empty());
        }
    }
}

/// Stage layouts (A, A, B, A), A and B equally wide over different bytes.
/// Under first-hit, stage 1 reads the key stage 0 gathered — compacted
/// beside the alive set when a drop took frames out at stage 0 — and
/// stages 2 and 3 gather afresh; under a vote, the batched walker gathers
/// the union of A and B once per parsed frame.
/// Under first-hit, a full vote and an early-exit vote, over frames that
/// include parser rejects and frames too short for every key byte, the
/// batched walker, the per-frame walker and `Switch::process` (which
/// gathers at every stage) agree on every verdict and on the counter
/// block, and `keys_built` counts one key per lookup of stages 0, 2 and 3
/// under first-hit, one per parsed frame under a vote.
#[test]
fn runs_of_equal_layouts_gather_one_key() {
    let a = KeyLayout::new(vec![0, 2]);
    let b = KeyLayout::new(vec![1, 3]);
    // Per stage: layout and `(value, mask, action)` rows over its two bytes.
    type Row = ([u8; 2], [u8; 2], Action);
    let stages: [(&KeyLayout, &[Row]); 4] = [
        (
            &a,
            &[
                ([0x80, 0], [0x80, 0], Action::Drop),
                ([0x40, 0], [0x40, 0], Action::Forward(3)),
            ],
        ),
        (
            &a,
            &[
                ([0, 0x01], [0, 0x01], Action::Drop),
                ([0x10, 0], [0x10, 0], Action::Count(1)),
            ],
        ),
        (
            &b,
            &[
                ([0x80, 0], [0x80, 0], Action::Drop),
                ([0, 0x04], [0, 0x04], Action::Forward(5)),
            ],
        ),
        (
            &a,
            &[
                ([0x20, 0], [0x20, 0], Action::Drop),
                ([0, 0x02], [0, 0x02], Action::Mirror(2)),
            ],
        ),
    ];
    let frames: Vec<Vec<u8>> = (0..600usize)
        .map(|i| {
            let full = [i * 37, i * 11, i * 5, i * 3].map(|v| v as u8);
            // Length 1 is a parser reject; 2 and 3 zero-pad key bytes.
            full[..[4, 4, 4, 3, 2, 4, 1][i % 7]].to_vec()
        })
        .collect();
    let exit = EarlyExit {
        min_votes: 2,
        margin: 2,
    };
    for vote in [
        None,
        Some(VoteStage::majority()),
        Some(VoteStage::with_early_exit(exit)),
    ] {
        let mut sw = Switch::new("runs", ParserSpec::raw_window(4, 2), 9);
        for (layout, rows) in stages {
            let mut table = Table::new("t", MatchKind::Ternary, layout.clone(), 8, Action::NoOp);
            for (priority, (value, mask, action)) in rows.iter().enumerate() {
                let spec = MatchSpec::Ternary {
                    value: value.to_vec(),
                    mask: mask.to_vec(),
                };
                table.insert(spec, *action, priority as i32).unwrap();
            }
            sw.add_stage(table);
        }
        sw.set_vote(vote);
        let pipeline = sw.read_pipeline(1);
        let oracle: Vec<Verdict> = frames.iter().map(|f| sw.process(f)).collect();

        let mut per_counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        let per_frame: Vec<Verdict> = frames
            .iter()
            .map(|f| pipeline.process_into(f, &mut per_counters, &mut scratch))
            .collect();
        assert_eq!(per_frame, oracle, "per-frame walker, vote {vote:?}");
        assert_eq!(&per_counters, sw.counters(), "vote {vote:?}");

        let mut arena = FrameArena::new(4096);
        for f in &frames {
            arena.push(f);
        }
        let batch = arena.seal_batch();
        let mut batch_counters = SwitchCounters::default();
        let mut batch_scratch = BatchScratch::new();
        let mut batched = Vec::new();
        pipeline.process_batch_into(
            batch.data(),
            batch.spans(),
            &mut batch_counters,
            &mut batch_scratch,
            &mut batched,
        );
        assert_eq!(batched, oracle, "batched walker, vote {vote:?}");
        assert_eq!(&batch_counters, sw.counters(), "vote {vote:?}");

        let lookups = |stage: usize| {
            let (hits, misses) = batch_counters.stages[stage];
            hits + misses
        };
        match vote {
            None => assert!(lookups(1) < lookups(0), "drops compact stage 1's keys"),
            Some(VoteStage { early_exit: None }) => assert_eq!(lookups(3), lookups(0)),
            Some(_) => assert!(lookups(3) < lookups(0), "decided votes leave early"),
        }
        let parsed = batch_counters.received - batch_counters.parser_rejected;
        if vote.is_none() {
            assert_eq!(
                batch_scratch.keys_built(),
                lookups(0) + lookups(2) + lookups(3),
                "one gather per run of equal layouts"
            );
        } else {
            assert_eq!(
                batch_scratch.keys_built(),
                parsed,
                "one gather per parsed frame, vote {vote:?}"
            );
        }
    }
}

/// Deterministic byte stream (xorshift), so failures reproduce.
fn stream(mut state: u64) -> impl FnMut() -> u8 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    }
}

/// Leaf boxes of a decision tree over the key bytes at `kept`: the byte
/// space is cut `depth` times, level by level, each level on the next kept
/// position at a multiple of 32 drawn from `next` (every kept position is
/// cut somewhere, no other ever is). A box is, per kept position, the
/// inclusive byte range it spans.
fn leaf_boxes(kept: &[usize], depth: usize, next: &mut impl FnMut() -> u8) -> Vec<Vec<(u8, u8)>> {
    let mut boxes = vec![vec![(0u8, 255u8); kept.len()]];
    for level in 0..depth {
        let at = level % kept.len();
        boxes = boxes
            .into_iter()
            .flat_map(|leaf| {
                let (lo, hi) = leaf[at];
                let cuts: Vec<u8> = (1..8u8)
                    .map(|k| k * 32)
                    .filter(|&c| c > lo && c <= hi)
                    .collect();
                if cuts.is_empty() {
                    return vec![leaf];
                }
                let cut = cuts[usize::from(next()) % cuts.len()];
                let (mut low, mut high) = (leaf.clone(), leaf);
                low[at].1 = cut - 1;
                high[at].0 = cut;
                vec![low, high]
            })
            .collect();
    }
    boxes
}

/// Installs `boxes` — over the key positions `kept` of `layout` — into a
/// table of `kind`, each box under a priority of its own (so no two boxes'
/// rows fold together). A range table takes a box as one entry; a ternary
/// one takes the cross product of its per-position prefix covers, which
/// minimization, over disjoint boxes, folds back into one row. `action`
/// picks a box's action, `None` leaves it out.
fn stage_of(
    layout: &KeyLayout,
    kind: MatchKind,
    kept: &[usize],
    boxes: &[Vec<(u8, u8)>],
    action: impl Fn(usize) -> Option<Action>,
) -> Table {
    let width = layout.width();
    let mut table = Table::new("learned", kind, layout.clone(), 1 << 16, Action::NoOp);
    for (j, leaf) in boxes.iter().enumerate() {
        let Some(action) = action(j) else { continue };
        if kind == MatchKind::Range {
            let (mut lo, mut hi) = (vec![0u8; width], vec![255u8; width]);
            for (&pos, &(l, h)) in kept.iter().zip(leaf) {
                (lo[pos], hi[pos]) = (l, h);
            }
            table
                .insert(MatchSpec::Range { lo, hi }, action, -(j as i32))
                .unwrap();
            continue;
        }
        let mut rows = vec![(vec![0u8; width], vec![0u8; width])];
        for (&pos, &(lo, hi)) in kept.iter().zip(leaf) {
            rows = rows
                .iter()
                .flat_map(|(value, mask)| {
                    range_to_prefixes(lo, hi).into_iter().map(move |p| {
                        let (mut value, mut mask) = (value.clone(), mask.clone());
                        (value[pos], mask[pos]) = (p.value, p.mask);
                        (value, mask)
                    })
                })
                .collect();
        }
        for (value, mask) in rows {
            table
                .insert(MatchSpec::Ternary { value, mask }, action, -(j as i32))
                .unwrap();
        }
    }
    table
}

/// The `(stage, rank)` the walkers report for `frame`, re-derived from the
/// mutable switch's own scans: the last stage that hit before the walk
/// stopped — at a drop under first-hit, once the vote is decided under a
/// vote — and whether a vote was decided with a stage still ahead (an
/// early exit). Frames under 8 bytes are parser rejects.
fn scan_matched(
    sw: &Switch,
    frame: &[u8],
    vote: Option<VoteStage>,
) -> (Option<(usize, u32)>, bool) {
    if frame.len() < 8 {
        return (None, false);
    }
    let (mut attack, mut benign, mut matched) = (0, 0, None);
    for stage in 0..sw.stage_count() {
        let table = sw.stage(stage);
        let (action, rank) = table.lookup_traced(&table.key().build_key(frame));
        match rank {
            Some(rank) => (attack, matched) = (attack + 1, Some((stage, rank))),
            None => benign += 1,
        }
        let stop = match vote {
            None => action == Action::Drop,
            Some(v) => v.early_exit.is_some_and(|e| e.decided(attack, benign)),
        };
        if stop {
            return (matched, vote.is_some() && stage + 1 < sw.stage_count());
        }
    }
    (matched, false)
}

/// Stages at a learned guard's scale: leaf boxes lowered to prefix cross
/// products over an 8-byte key, several hundred rows a stage, so every
/// table's rows carry a summary and a key walks only the words its boxes
/// sit in. A first-hit pipeline of two stages (drops, counts, forwards and
/// no-ops) and a five-stage vote under `EarlyExit::sound_majority(5)`
/// (trees that hold only their attack leaves, so a miss is a benign vote),
/// each with the kept positions a prefix of the key and scattered as
/// `loop_churn`'s are: the batched walker, the per-frame walker and
/// `Switch::process` agree on every verdict, on the counter block and on
/// the `(stage, rank)` each frame matched — a compiled rank names a folded
/// box, a scanned one a row of its cross product, so both are compared as
/// the `(stage, priority, action)` they name, a priority being one box's.
#[test]
fn learned_scale_stages_on_the_batched_and_vote_paths() {
    for kept in [&[0, 1, 2, 3, 4][..], &[0, 1, 2, 3, 4, 6]] {
        let mut next = stream(0x9e37_79b9_7f4a_7c15 ^ kept.len() as u64);
        for vote in [
            None,
            Some(VoteStage::with_early_exit(EarlyExit::sound_majority(5))),
        ] {
            let mut sw = Switch::new("learned", ParserSpec::raw_window(8, 8), 9);
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for _ in 0..if vote.is_some() { 5 } else { 2 } {
                let boxes = leaf_boxes(kept, 7, &mut next);
                let layout = KeyLayout::window(8);
                let kind = MatchKind::Ternary;
                let table = stage_of(&layout, kind, kept, &boxes, |j| match (vote, j % 5) {
                    (None, 0 | 3) => Some(Action::Drop),
                    (None, 1) => Some(Action::Count(j as u32 % 3)),
                    (None, 2) => Some(Action::Forward(j as u16)),
                    (None, _) => Some(Action::NoOp),
                    (Some(_), k) => (k % 2 == 0).then_some(Action::Drop),
                });
                assert!(table.len() > 256, "{} rows", table.len());
                // Each box's corners, the other bytes drawn at random.
                for leaf in &boxes {
                    for corner in [0, 1] {
                        let mut frame: Vec<u8> = (0..8).map(|_| next()).collect();
                        for (&pos, &(lo, hi)) in kept.iter().zip(leaf) {
                            frame[pos] = if corner == 0 { lo } else { hi };
                        }
                        frames.push(frame);
                    }
                }
                sw.add_stage(table);
            }
            frames.extend((0..300).map(|i| {
                (0..8 - usize::from(i % 50 == 0) * 3)
                    .map(|_| next())
                    .collect()
            }));
            sw.set_vote(vote);
            let pipeline = sw.read_pipeline(1);
            for stage in pipeline.stages() {
                let form = stage.wildcard_form();
                assert_eq!(
                    form.positions, kept,
                    "the kept positions are the boxes' own"
                );
            }
            for (stage, compiled) in pipeline.stages().iter().enumerate() {
                let mut boxes: Vec<i32> = sw
                    .stage(stage)
                    .entries()
                    .iter()
                    .map(|e| e.priority)
                    .collect();
                boxes.dedup();
                assert_eq!(compiled.minimized_len(), boxes.len(), "one row a box");
            }
            let scanned = |(stage, rank): (usize, u32)| {
                let entry = &sw.stage(stage).entries()[rank as usize];
                (stage, Some(entry.priority), entry.action)
            };
            let compiled = |(stage, rank): (usize, u32)| {
                let table = &pipeline.stages()[stage];
                let action = table.minimized().entries[rank as usize].action;
                (stage, table.rank_priority(rank), action)
            };
            let matched: Vec<_> = frames
                .iter()
                .map(|f| scan_matched(&sw, f, vote).0.map(scanned))
                .collect();
            let oracle: Vec<Verdict> = frames.iter().map(|f| sw.process(f)).collect();
            assert!(oracle.contains(&Verdict::Drop));
            assert!(oracle.iter().any(|v| matches!(v, Verdict::Forward(_))));

            let mut per_counters = SwitchCounters::default();
            let mut per_sink = RecordingSink::default();
            let mut scratch = Vec::new();
            let per_frame: Vec<Verdict> = frames
                .iter()
                .map(|f| pipeline.process_with(f, &mut per_counters, &mut scratch, &mut per_sink))
                .collect();

            let mut arena = FrameArena::new(1 << 16);
            let mut batch_counters = SwitchCounters::default();
            let mut batch_sink = RecordingSink::default();
            let mut batch_scratch = BatchScratch::new();
            let mut batched = Vec::new();
            for chunk in frames.chunks(256) {
                for f in chunk {
                    arena.push(f);
                }
                let batch = arena.seal_batch();
                pipeline.process_batch_with(
                    batch.data(),
                    batch.spans(),
                    &mut batch_counters,
                    &mut batch_scratch,
                    &mut batched,
                    &mut batch_sink,
                );
            }
            let case = format!("kept {kept:?}, vote {vote:?}");
            assert_eq!(per_frame, oracle, "per-frame walker, {case}");
            assert_eq!(batched, oracle, "batched walker, {case}");
            assert_eq!(&per_counters, sw.counters(), "per-frame counters, {case}");
            assert_eq!(&batch_counters, sw.counters(), "batched counters, {case}");
            let reported = |sink: &RecordingSink| -> Vec<_> {
                sink.verdicts
                    .iter()
                    .map(|&(_, _, m)| m.map(compiled))
                    .collect()
            };
            assert_eq!(
                reported(&per_sink),
                matched,
                "per-frame (stage, rank), {case}"
            );
            assert_eq!(
                reported(&batch_sink),
                matched,
                "batched (stage, rank), {case}"
            );
        }
    }
}

/// A vote over trees that differ, on the batched walker's one probe per
/// frame: five distinct trees — ternary and range, over five key layouts
/// that are windows, strides, scattered and unsorted offsets, one offset
/// read twice — whose rows total more than 256, so the fused rows carry
/// summaries and a tree's ranks straddle words; the same trees with a
/// benign-only (empty) stage and an exact stage among them; and a vote of
/// no stages at all. Under `VoteStage::majority()` and
/// `EarlyExit::sound_majority(5)`, over frames that hit each box's corners,
/// frames too short for the deepest offsets (zero-padded) and parser
/// rejects, the batched walker, the per-frame walker and `Switch::process`
/// agree on every verdict, on the counter block (per-stage hits and misses
/// included), on the early exits and on the `(stage, rank)` each frame
/// reports, compared as the `(stage, priority, action)` it names.
#[test]
fn distinct_trees_vote_on_one_fused_probe() {
    let trees: [(KeyLayout, MatchKind, &[usize]); 5] = [
        (KeyLayout::window(8), MatchKind::Ternary, &[0, 1, 2, 3, 4]),
        (
            KeyLayout::new((2..10).collect()),
            MatchKind::Range,
            &[0, 2, 3, 5, 7],
        ),
        (
            KeyLayout::new((0..16).step_by(2).collect()),
            MatchKind::Ternary,
            &[1, 2, 3, 4, 6],
        ),
        (
            KeyLayout::new(vec![9, 1, 5, 3, 12, 1, 7, 11]),
            MatchKind::Range,
            &[0, 1, 3, 5, 6],
        ),
        (
            KeyLayout::new(vec![15, 14, 13, 0]),
            MatchKind::Range,
            &[0, 1, 2, 3],
        ),
    ];
    let mut next = stream(0x5eed_f0e5_7000_0005);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let tables: Vec<Table> = trees
        .iter()
        .enumerate()
        .map(|(t, (layout, kind, kept))| {
            let depth = if *kind == MatchKind::Ternary { 7 } else { 8 };
            let boxes = leaf_boxes(kept, depth, &mut next);
            for leaf in &boxes {
                for corner in [0, 1] {
                    let mut frame: Vec<u8> = (0..16).map(|_| next()).collect();
                    for (&pos, &(lo, hi)) in kept.iter().zip(leaf) {
                        frame[layout.offsets()[pos]] = if corner == 0 { lo } else { hi };
                    }
                    frames.push(frame);
                }
            }
            // Each tree keeps its own share of its leaves as attack boxes.
            stage_of(layout, *kind, kept, &boxes, |j| {
                ((j + t) % 5 % 2 == 0).then_some(Action::Drop)
            })
        })
        .collect();
    let mut exact = Table::new(
        "exact",
        MatchKind::Exact,
        KeyLayout::new(vec![3, 13]),
        64,
        Action::NoOp,
    );
    for k in 0..40u8 {
        let key = vec![next(), next()];
        let mut frame: Vec<u8> = (0..16).map(|_| next()).collect();
        (frame[3], frame[13]) = (key[0], key[1]);
        frames.push(frame);
        exact
            .insert(MatchSpec::Exact(key.clone()), Action::Drop, 1)
            .unwrap();
        if k % 8 == 0 {
            // A shadowed duplicate: the first occurrence wins.
            let spec = MatchSpec::Exact(key);
            exact.insert(spec, Action::Forward(2), 0).unwrap();
        }
    }
    frames.extend((0..300).map(|i| (0..[16, 12, 9, 8, 5][i % 5]).map(|_| next()).collect()));

    let empty = || {
        Table::new(
            "benign",
            MatchKind::Ternary,
            KeyLayout::window(8),
            8,
            Action::NoOp,
        )
    };
    let with_others = vec![
        tables[0].clone(),
        tables[1].clone(),
        empty(),
        tables[3].clone(),
        exact,
    ];
    for (case, stages) in [
        ("five trees", tables.clone()),
        ("empty and exact", with_others),
        ("no stages", vec![]),
    ] {
        for vote in [
            VoteStage::majority(),
            VoteStage::with_early_exit(EarlyExit::sound_majority(5)),
        ] {
            let mut sw = Switch::new("forest", ParserSpec::raw_window(16, 8), 9);
            for table in &stages {
                sw.add_stage(table.clone());
            }
            sw.set_vote(Some(vote));
            let pipeline = sw.read_pipeline(1);
            let rows: usize = pipeline.stages().iter().map(|s| s.minimized_len()).sum();
            if case == "five trees" {
                assert!(rows > 256, "{rows} rows");
            }
            let scanned = |(stage, rank): (usize, u32)| {
                let entry = &sw.stage(stage).entries()[rank as usize];
                (stage, Some(entry.priority), entry.action)
            };
            let compiled = |(stage, rank): (usize, u32)| {
                let table = &pipeline.stages()[stage];
                let action = table.minimized().entries[rank as usize].action;
                (stage, table.rank_priority(rank), action)
            };
            let scans: Vec<_> = frames
                .iter()
                .map(|f| scan_matched(&sw, f, Some(vote)))
                .collect();
            let matched: Vec<_> = scans.iter().map(|(m, _)| m.map(scanned)).collect();
            let exits = scans.iter().filter(|(_, exited)| *exited).count() as u64;
            let oracle: Vec<Verdict> = frames.iter().map(|f| sw.process(f)).collect();

            let mut per_counters = SwitchCounters::default();
            let mut per_sink = RecordingSink::default();
            let mut scratch = Vec::new();
            let per_frame: Vec<Verdict> = frames
                .iter()
                .map(|f| pipeline.process_with(f, &mut per_counters, &mut scratch, &mut per_sink))
                .collect();

            let mut arena = FrameArena::new(1 << 16);
            let mut batch_counters = SwitchCounters::default();
            let mut batch_sink = RecordingSink::default();
            let mut batch_scratch = BatchScratch::new();
            let mut batched = Vec::new();
            let mut batch_exits = 0;
            for chunk in frames.chunks(256) {
                for f in chunk {
                    arena.push(f);
                }
                let batch = arena.seal_batch();
                pipeline.process_batch_with(
                    batch.data(),
                    batch.spans(),
                    &mut batch_counters,
                    &mut batch_scratch,
                    &mut batched,
                    &mut batch_sink,
                );
                batch_exits += batch_scratch.vote_early_exits();
            }
            let case = format!("{case}, vote {vote:?}");
            assert_eq!(per_frame, oracle, "per-frame walker, {case}");
            assert_eq!(batched, oracle, "batched walker, {case}");
            assert_eq!(&per_counters, sw.counters(), "per-frame counters, {case}");
            assert_eq!(&batch_counters, sw.counters(), "batched counters, {case}");
            assert_eq!(batch_exits, exits, "early exits, {case}");
            let reported = |sink: &RecordingSink| -> Vec<_> {
                sink.verdicts
                    .iter()
                    .map(|&(_, _, m)| m.map(compiled))
                    .collect()
            };
            assert_eq!(
                reported(&per_sink),
                matched,
                "per-frame (stage, rank), {case}"
            );
            assert_eq!(
                reported(&batch_sink),
                matched,
                "batched (stage, rank), {case}"
            );
            if !stages.is_empty() {
                assert!(oracle.contains(&Verdict::Drop), "{case}");
                assert!(oracle.contains(&Verdict::Forward(9)), "{case}");
            }
            if vote.early_exit.is_some() && !stages.is_empty() {
                assert!(exits > 0, "{case}");
            }
        }
    }
}

/// `n` point entries over a two-byte key, each at a priority of its own so
/// nothing folds or shadows: rank `j` is the `j`-th entry, and
/// `points[j]` its key.
fn points(layout: KeyLayout, n: usize, action: impl Fn(usize) -> Action) -> (Table, Vec<[u8; 2]>) {
    let mut table = Table::new("points", MatchKind::Range, layout, n, Action::NoOp);
    let points: Vec<[u8; 2]> = (0..n)
        .map(|j| ((j as u16).wrapping_mul(7919) ^ 0x5a5a).to_be_bytes())
        .collect();
    for (j, point) in points.iter().enumerate() {
        let spec = MatchSpec::Range {
            lo: point.to_vec(),
            hi: point.to_vec(),
        };
        table.insert(spec, action(j), -(j as i32)).unwrap();
    }
    (table, points)
}

/// Checks that the batched walker, the per-frame walker and
/// `Switch::process` agree on `frames` through `sw`: every verdict, the
/// counter block and the `(stage, rank)` each frame reports.
fn walkers_agree(sw: &Switch, frames: &[Vec<u8>], case: &str) {
    let pipeline = sw.read_pipeline(1);
    let mut reference = sw.clone();
    let oracle: Vec<Verdict> = frames.iter().map(|f| reference.process(f)).collect();
    let matched: Vec<_> = frames
        .iter()
        .map(|f| scan_matched(sw, f, sw.vote()).0)
        .collect();
    let mut per_counters = SwitchCounters::default();
    let mut per_sink = RecordingSink::default();
    let mut scratch = Vec::new();
    let per_frame: Vec<Verdict> = frames
        .iter()
        .map(|f| pipeline.process_with(f, &mut per_counters, &mut scratch, &mut per_sink))
        .collect();
    let mut arena = FrameArena::new(1 << 16);
    let mut batch_counters = SwitchCounters::default();
    let mut batch_sink = RecordingSink::default();
    let mut batch_scratch = BatchScratch::new();
    let mut batched = Vec::new();
    for chunk in frames.chunks(256) {
        for f in chunk {
            arena.push(f);
        }
        let batch = arena.seal_batch();
        pipeline.process_batch_with(
            batch.data(),
            batch.spans(),
            &mut batch_counters,
            &mut batch_scratch,
            &mut batched,
            &mut batch_sink,
        );
    }
    assert_eq!(per_frame, oracle, "per-frame walker, {case}");
    assert_eq!(batched, oracle, "batched walker, {case}");
    assert_eq!(
        &per_counters,
        reference.counters(),
        "per-frame counters, {case}"
    );
    assert_eq!(
        &batch_counters,
        reference.counters(),
        "batched counters, {case}"
    );
    let reported = |sink: &RecordingSink| -> Vec<_> { sink.verdicts.iter().map(|v| v.2).collect() };
    assert_eq!(
        reported(&per_sink),
        matched,
        "per-frame (stage, rank), {case}"
    );
    assert_eq!(
        reported(&batch_sink),
        matched,
        "batched (stage, rank), {case}"
    );
}

/// Rank ranges past one summary word, where nothing folds, so a rank is
/// an entry: a vote of three stages of 1,500, 2,000 and 1,200 point
/// entries — 4,700 fused ranks, two summary words; the second stage's
/// range starts mid-word (rank 1,500), the third's starts mid-word (rank
/// 3,500) and crosses the summary-word boundary at rank 4,096 — and a
/// first-hit table of 4,500 rows. Frames hit the entries next to every
/// range's ends, every seventh one between, and random keys. Under
/// `VoteStage::majority()` and `EarlyExit::sound_majority(3)` for the
/// vote, the batched walker, the per-frame walker and `Switch::process`
/// agree on every verdict, the counters and the `(stage, rank)` each frame
/// reports; the table's batched lookup agrees with `Table::peek`.
#[test]
fn rank_ranges_across_summary_words() {
    let mut next = stream(0x0123_4567_89ab_cdef);
    let mut frame_at = |layout: &KeyLayout, point: [u8; 2]| -> Vec<u8> {
        let mut frame: Vec<u8> = (0..8).map(|_| next()).collect();
        for (&at, byte) in layout.offsets().iter().zip(point) {
            frame[at] = byte;
        }
        frame
    };
    let near_ends = |n: usize| (0..n).filter(move |&j| j < 70 || j + 70 >= n || j % 7 == 0);
    // Frames of random bytes but for bytes 4 and 5, which no key reads.
    let elsewhere = KeyLayout::new(vec![4, 5]);

    let mut sw = Switch::new("ranges", ParserSpec::raw_window(8, 8), 9);
    let mut frames = Vec::new();
    for (n, offsets) in [(1500, [0, 1]), (2000, [1, 2]), (1200, [2, 3])] {
        let layout = KeyLayout::new(offsets.to_vec());
        let (table, points) = points(layout.clone(), n, |_| Action::Drop);
        frames.extend(near_ends(n).map(|j| frame_at(&layout, points[j])));
        sw.add_stage(table);
    }
    frames.extend((0..300).map(|_| frame_at(&elsewhere, [0, 0])));
    frames.push(vec![1; 5]);
    assert_eq!(sw.read_pipeline(1).minimized_entry_count(), 4700);
    for vote in [
        VoteStage::majority(),
        VoteStage::with_early_exit(EarlyExit::sound_majority(3)),
    ] {
        sw.set_vote(Some(vote));
        walkers_agree(&sw, &frames, &format!("vote {vote:?}"));
    }

    let layout = KeyLayout::new(vec![6, 2]);
    let actions = [
        Action::Drop,
        Action::Forward(3),
        Action::Count(1),
        Action::NoOp,
    ];
    let (table, points) = points(layout.clone(), 4500, |j| actions[j % 4]);
    let mut frames: Vec<Vec<u8>> = near_ends(4500)
        .map(|j| frame_at(&layout, points[j]))
        .collect();
    frames.extend((0..300).map(|_| frame_at(&elsewhere, [0, 0])));
    let mut sw = Switch::new("table", ParserSpec::raw_window(8, 8), 9);
    sw.add_stage(table.clone());
    walkers_agree(&sw, &frames, "first-hit table");
    let pipeline = sw.read_pipeline(1);
    let compiled = &pipeline.stages()[0];
    assert_eq!(compiled.minimized_len(), 4500);
    let keys: Vec<Vec<u8>> = frames.iter().map(|f| layout.build_key(f)).collect();
    let mut out = vec![(Action::NoOp, LookupOutcome::Miss); keys.len()];
    compiled.lookup_batch(&keys.concat(), 2, &mut [], &mut out);
    for (key, (action, _)) in keys.iter().zip(&out) {
        assert_eq!(*action, table.peek(key), "key {key:02x?}");
    }
}
