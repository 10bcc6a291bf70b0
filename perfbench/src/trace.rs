//! The traced pass's spans: recorded in memory by the benchmark around its
//! calls into each layer, written out once at the end as a Chrome trace
//! (open it in `chrome://tracing` or Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

use crate::solve::Solve;

struct Span {
    solve: u64,
    name: &'static str,
    parent: &'static str,
    start: Instant,
    end: Instant,
}

/// Spans of all traced solves. Spans of one solve share its id.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
        }
    }

    /// Record one solve: the root `solve` span and one child per layer,
    /// plus the oracle check that ran from `check_start` to `check_end`.
    pub fn record(&mut self, s: &Solve, check_start: Instant, check_end: Instant) {
        let solve = self.next_id;
        self.next_id += 1;
        let mut span = |name, parent, start, end| {
            self.spans.push(Span {
                solve,
                name,
                parent,
                start,
                end,
            })
        };
        span("solve", "", s.t_build, check_end);
        span("graph.build", "solve", s.t_build, s.t_call);
        span("am.spawn", "solve", s.t_call, s.t_spawned);
        span("core.install", "solve", s.t_spawned, s.t_installed);
        span("core.kernel", "solve", s.t_installed, s.t_kernel_end);
        span("am.teardown", "solve", s.t_kernel_end, s.t_returned);
        span("oracle.check", "solve", check_start, check_end);
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
    /// the solve id as both `tid` and `args.solve`.
    pub fn to_json(&self) -> String {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"solve\": {}, \"parent\": \"{}\"}}}}",
                s.name,
                s.solve,
                us(s.start),
                us(s.end) - us(s.start),
                s.solve,
                s.parent
            )
            .expect("writing to a String");
        }
        out.push_str("\n]}\n");
        out
    }
}
