//! Differential property suite pinning the batched pipeline path to the
//! per-frame path: for randomized rulesets (all four match kinds, priority
//! ties, multiple stages) and randomized frame batches — including
//! parser-rejected runts — `process_batch_with` must produce the same
//! verdict sequence, the same counter block (totals, per-reason drop
//! counts and per-stage hit counters are all fields of it), and the same
//! frame-order verdict report stream as calling `process_with` once per
//! frame. A fixed case beside it walks stages whose key layouts repeat —
//! the two compiled walkers gather a key once per run of equal layouts —
//! against the mutable switch, which gathers at every stage.

use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::pipeline::BatchScratch;
use p4guard_dataplane::switch::{Switch, SwitchCounters};
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_packet::arena::FrameArena;
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

/// Stage layouts (A, A, B, A), A and B equally wide over different bytes:
/// stage 1 reads the key stage 0 gathered — compacted beside the alive
/// set when a first-hit drop took frames out at stage 0 — and stages 2
/// and 3 gather afresh.
/// Under first-hit, a full vote and an early-exit vote, over frames that
/// include parser rejects and frames too short for every key byte, the
/// batched walker, the per-frame walker and `Switch::process` (which
/// gathers at every stage) agree on every verdict and on the counter
/// block, and `keys_built` counts one key per lookup of stages 0, 2 and 3.
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
        assert_eq!(
            batch_scratch.keys_built(),
            lookups(0) + lookups(2) + lookups(3),
            "one gather per run of equal layouts, vote {vote:?}"
        );
        if vote == Some(VoteStage::majority()) {
            let parsed = batch_counters.received - batch_counters.parser_rejected;
            assert_eq!(batch_scratch.keys_built(), parsed * 3);
        }
    }
}
