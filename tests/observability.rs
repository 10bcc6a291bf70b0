//! End-to-end observability: a profiled SSSP run exports valid Chrome
//! trace-event JSON (one process track per rank, epoch + handler +
//! engine + strategy spans) and a metrics document whose per-epoch
//! profiles reassemble the cumulative counters.
//!
//! The JSON checks use a minimal hand-rolled parser (the workspace has
//! no JSON dependency by design) that accepts exactly the subset the
//! exporters emit.

use std::collections::BTreeMap;

use dgp::prelude::*;
use dgp_algorithms::{seq, sssp::Sssp};
use dgp_core::engine::HopClass;
use dgp_graph::properties::EdgeMap;
use dgp_graph::{DistGraph, Distribution};

// -----------------------------------------------------------------------
// A tiny JSON value + parser, sufficient for the exporters' output.
// -----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing garbage at byte {}", p.i);
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.ws();
        assert!(
            self.i < self.s.len() && self.s[self.i] == b,
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        assert!(self.i < self.s.len(), "unexpected end of input");
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut m = BTreeMap::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(m);
        }
        loop {
            self.ws();
            let k = self.string();
            self.expect(b':');
            let v = self.value();
            m.insert(k, v);
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(m);
                }
                c => panic!(
                    "expected ',' or '}}', got {:?} at byte {}",
                    c as char, self.i
                ),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut v = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(v);
        }
        loop {
            v.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(v);
                }
                c => panic!(
                    "expected ',' or ']', got {:?} at byte {}",
                    c as char, self.i
                ),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            assert!(self.i < self.s.len(), "unterminated string");
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            let cp = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(cp).unwrap());
                            self.i += 4;
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                }
                b => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = self.i;
                    let len = if b < 0x80 {
                        1
                    } else if b >> 5 == 0b110 {
                        2
                    } else if b >> 4 == 0b1110 {
                        3
                    } else {
                        4
                    };
                    self.i += len;
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

// -----------------------------------------------------------------------
// The end-to-end checks.
// -----------------------------------------------------------------------

const RANKS: usize = 3;

/// One profiled Δ-stepping SSSP run, returning everything the exporters
/// produce (from rank 0; the documents are machine-wide).
fn profiled_sssp() -> (Vec<f64>, Vec<f64>, String, String) {
    let mut el = generators::rmat(8, 8, generators::RmatParams::GRAPH500, 17);
    el.randomize_weights(0.25, 2.0, 18);
    let oracle = seq::dijkstra(&el, 0);
    let graph = DistGraph::build(&el, Distribution::block(el.num_vertices(), RANKS), false);
    let weights = EdgeMap::from_weights(&graph, &el);
    // Full causal sampling so every envelope ships with a trace id — the
    // flow-event round-trip below must see a stitched cascade.
    let cfg = MachineConfig::new(RANKS).profile(true).trace_sampling(1);
    let mut out = Machine::run(cfg, move |ctx| {
        let s = Sssp::install(ctx, &graph, &weights, EngineConfig::default());
        s.run(ctx, 0, SsspStrategy::Delta(0.5));
        let dist = s.dist.snapshot();
        (ctx.rank() == 0).then(|| {
            (
                dist,
                ctx.chrome_trace_json().expect("profiling is on"),
                ctx.metrics_report().to_json(),
            )
        })
    });
    let (dist, trace, metrics) = out[0].take().unwrap();
    (dist, oracle, trace, metrics)
}

#[test]
fn chrome_trace_export_is_valid_and_complete() {
    let (dist, oracle, trace, _) = profiled_sssp();
    assert!(dist
        .iter()
        .zip(&oracle)
        .all(|(a, b)| (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite())));

    let doc = Parser::parse(&trace);
    let events = doc
        .get("traceEvents")
        .expect("trace-event object form")
        .as_arr();

    // One process-name metadata event per rank, naming the track "rank N".
    let mut meta_pids = Vec::new();
    for e in events {
        if e.get("ph").map(Json::as_str) == Some("M") {
            assert_eq!(e.get("name").unwrap().as_str(), "process_name");
            let pid = e.get("pid").unwrap().as_num() as usize;
            let label = e.get("args").unwrap().get("name").unwrap().as_str();
            assert_eq!(label, format!("rank {pid}"));
            meta_pids.push(pid);
        }
    }
    meta_pids.sort_unstable();
    assert_eq!(meta_pids, (0..RANKS).collect::<Vec<_>>());

    // Duration spans: every rank has a track; the runtime, engine, and
    // strategy layers all show up; timestamps are sane.
    let mut span_pids = [0usize; RANKS];
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").map(Json::as_str) != Some("X") {
            continue;
        }
        let pid = e.get("pid").unwrap().as_num() as usize;
        assert!(pid < RANKS, "span pid {pid} is a rank id");
        span_pids[pid] += 1;
        names.insert(e.get("name").unwrap().as_str().to_string());
        assert!(e.get("ts").unwrap().as_num() >= 0.0);
        assert!(e.get("dur").unwrap().as_num() >= 0.0);
        let epoch = e.get("args").unwrap().get("epoch").unwrap().as_num();
        assert!(epoch >= 1.0, "spans carry a 1-indexed epoch");
    }
    assert!(
        span_pids.iter().all(|&n| n > 0),
        "every rank recorded spans"
    );
    for expected in ["epoch", "handler", "engine.gather", "delta.bucket"] {
        assert!(
            names.contains(expected),
            "missing span {expected:?}: {names:?}"
        );
    }
}

#[test]
fn chrome_trace_flow_events_round_trip() {
    let (_, _, trace, _) = profiled_sssp();
    let doc = Parser::parse(&trace);
    let events = doc.get("traceEvents").unwrap().as_arr();

    // Collect flow starts ("s", at the shipping rank) and termini ("f",
    // at the handling rank). Ids are the envelopes' causal event ids.
    let mut starts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut ends: BTreeMap<u64, f64> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").map(Json::as_str);
        if ph != Some("s") && ph != Some("f") {
            continue;
        }
        assert_eq!(e.get("name").unwrap().as_str(), "causal");
        assert_eq!(e.get("cat").unwrap().as_str(), "trace");
        let id = e.get("id").unwrap().as_num() as u64;
        let ts = e.get("ts").unwrap().as_num();
        if ph == Some("s") {
            let prev = starts.insert(id, ts);
            assert!(prev.is_none(), "flow id {id} started twice");
        } else {
            assert_eq!(
                e.get("bp").map(Json::as_str),
                Some("e"),
                "flow terminus must bind to the enclosing slice"
            );
            ends.insert(id, ts);
        }
    }
    assert!(!starts.is_empty(), "full sampling must produce flow events");
    // Every consumed flow was produced, and delivery follows shipment on
    // the shared clock — the arrows point forward in time.
    for (id, end_ts) in &ends {
        let start_ts = starts
            .get(id)
            .unwrap_or_else(|| panic!("flow {id} consumed but never produced"));
        assert!(
            end_ts >= start_ts,
            "flow {id} travels backwards in time ({start_ts} -> {end_ts})"
        );
    }
}

#[test]
fn metrics_json_carries_gauges_and_spans_dropped() {
    let (_, _, _, metrics) = profiled_sssp();
    let doc = Parser::parse(&metrics);
    // Per-rank dropped-span counts: one entry per rank when profiling.
    let dropped = doc.get("spans_dropped").unwrap().as_arr();
    assert_eq!(dropped.len(), RANKS);
    // Δ-stepping publishes convergence gauges into each drained epoch.
    let epochs = doc.get("epochs").unwrap().as_arr();
    let gauged: Vec<_> = epochs
        .iter()
        .filter_map(|e| e.get("gauges"))
        .filter(|g| g.get("frontier").is_some())
        .collect();
    assert!(
        !gauged.is_empty(),
        "no epoch carries a frontier gauge: {metrics}"
    );
    for g in &gauged {
        assert!(g.get("relaxations").is_some());
        assert!(g.get("expanded").is_some());
        // The frontier summed across ranks is a vertex count.
        assert!(g.get("frontier").unwrap().as_num() >= 0.0);
    }
    assert!(
        epochs
            .iter()
            .filter_map(|e| e.get("gauges"))
            .any(|g| g.get("bucket").is_some()),
        "Δ-stepping must report which bucket a phase drained"
    );
}

#[test]
fn metrics_json_epochs_reassemble_cumulative() {
    let (_, _, _, metrics) = profiled_sssp();
    let doc = Parser::parse(&metrics);
    assert_eq!(doc.get("ranks").unwrap().as_num() as usize, RANKS);
    let cumulative = doc.get("cumulative").unwrap();
    let epochs = doc.get("epochs").unwrap().as_arr();
    assert!(!epochs.is_empty(), "Δ-stepping runs at least one epoch");
    for (i, e) in epochs.iter().enumerate() {
        assert_eq!(e.get("epoch").unwrap().as_num() as usize, i + 1);
    }
    for key in ["messages_sent", "envelopes_sent", "messages_handled"] {
        let total: f64 = epochs
            .iter()
            .map(|e| e.get("delta").unwrap().get(key).unwrap().as_num())
            .sum();
        assert_eq!(total, cumulative.get(key).unwrap().as_num(), "{key}");
    }
    // Per-type counters name the registered engine message types and
    // carry their bytes: messages sent × the type's width.
    let per_type = doc.get("per_type").unwrap().as_arr();
    assert!(!per_type.is_empty());
    for t in per_type {
        assert!(!t.get("name").unwrap().as_str().is_empty());
        assert!(t.get("bytes").is_some(), "per-type entry without bytes");
    }
    let by_class = |class: HopClass| {
        let t = per_type
            .iter()
            .find(|t| t.get("name").unwrap().as_str() == class.type_name())
            .unwrap_or_else(|| panic!("{class:?} not registered"));
        (
            t.get("sent").unwrap().as_num(),
            t.get("bytes").unwrap().as_num(),
        )
    };
    // The compiled relax hop ships two live slots, so its traffic is on
    // the two-slot class; nothing travels full width.
    let (sent, bytes) = by_class(HopClass::Slots2);
    assert!(sent > 0.0, "no relax hops recorded");
    assert_eq!(bytes, sent * HopClass::Slots2.bytes() as f64);
    assert_eq!(by_class(HopClass::Full), (0.0, 0.0));
}
