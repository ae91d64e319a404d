//! `serve-op`: an open loop of single-job op submissions against an
//! in-process `fts-server`, at a `low` and then a `high` fixed rate.
//!
//! One sender thread follows the seeded schedule (submission due times,
//! function/input and cache mode); one collector thread gathers every
//! result through `WireClient::wait_done`. Time to result runs from a
//! submission's *due* time to the collector seeing `done`, so a sender
//! that falls behind charges its lateness to every later request.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use four_terminal_lattice::batch::PipelineJobBuilder;
use four_terminal_lattice::named_function;
use fts_engine::{cache_key, CacheMode, Engine};
use fts_logic::TruthTable;
use fts_server::service::build_job;
use fts_server::wire::{outcome_json, AnalysisSpec, JobSource, JobSpec, Json};
use fts_server::{ClientError, Server, ServerConfig, ServerHandle, ShutdownReport, WireClient};

use crate::probe::{self, Tally};
use crate::report::quote;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;
use crate::{Run, Workload};

/// Small and mid-size named functions the sender draws from.
pub const FUNCTIONS: [&str; 5] = ["and2", "or3", "xor3", "maj3", "th24"];
/// Offered rate of the `low` phase \[1/s\]: an empty queue.
pub const LOW_RPS: f64 = 40.0;
/// Offered rate of the `high` phase \[1/s\].
pub const HIGH_RPS: f64 = 250.0;
/// Share of the run spent at `low` (it comes first).
pub const LOW_SHARE: f64 = 0.3;
/// A `high` job counts as completed only within this time to result.
pub const TTR_LIMIT_MS: f64 = 50.0;
/// Tail percentile of `high` time to result.
pub const TAIL_CAP: f64 = 99.0;
/// A run whose sender ran later than this at p99 is invalid.
pub const MAX_GEN_LAG_P99_MS: f64 = 25.0;
/// Status-poll interval of the collector's `wait_done`.
pub const POLL: Duration = Duration::from_micros(500);
/// Share of submissions that use `"cache":"refresh"` (solve + write);
/// the rest use `"default"` on an already-served key (a cache read).
pub const REFRESH_SHARE: f64 = 0.5;

/// One scheduled submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time from the start of the run \[s\].
    pub due_s: f64,
    /// Index into the key list.
    pub key: usize,
    /// `"refresh"` (true) or `"default"` (false).
    pub refresh: bool,
    /// Part of the `high` phase.
    pub high: bool,
}

/// The seeded schedule: `low` then `high`, each at its fixed mean rate
/// with gaps jittered uniformly in ±50% of the mean gap.
pub fn schedule(seed: u64, stream: u64, keys: usize, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0x5E27_0000 + stream);
    let low_end = seconds * LOW_SHARE;
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let high = t >= low_end;
        let rate = if high { HIGH_RPS } else { LOW_RPS };
        t += (0.5 + rng.unit()) / rate;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            key: rng.below(keys),
            refresh: rng.unit() < REFRESH_SHARE,
            high: t >= low_end,
        });
    }
}

/// What happened to one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Fate {
    /// Result seen by the collector `done_s` after the run start.
    Done {
        /// \[s\] since run start.
        done_s: f64,
        /// The status document.
        body: String,
    },
    /// Refused with this HTTP status (429 overloaded, 503 draining).
    Refused(u16),
    /// Transport or protocol failure, or a lost result.
    Error(String),
}

/// The sender's record of one submission.
#[derive(Debug, Clone)]
pub struct Sent {
    /// How late the sender started the submission \[s\].
    pub lag_s: f64,
    /// Send start → `202` \[s\].
    pub submit_s: f64,
    /// `202` time since run start \[s\].
    pub ack_s: f64,
}

/// Outcome of submitting one arrival: a job id, or how it failed.
pub type SubmitResult = Result<u64, Fate>;

/// Drives `schedule` open loop from `start`: waits for each due time,
/// calls `submit`, and hands admitted ids to `admitted`. Lateness is
/// recorded, never caught up by skipping.
pub fn send_all(
    schedule: &[Arrival],
    start: Instant,
    rec: &mut Recorder,
    mut submit: impl FnMut(&mut Recorder, usize, &Arrival) -> SubmitResult,
    mut admitted: impl FnMut(usize, u64),
) -> (Vec<Sent>, Vec<Option<Fate>>) {
    let mut sent = Vec::with_capacity(schedule.len());
    let mut fates = vec![None; schedule.len()];
    for (i, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        let result = submit(rec, i, a);
        let t1 = Instant::now();
        sent.push(Sent {
            lag_s: t0.saturating_duration_since(due).as_secs_f64(),
            submit_s: (t1 - t0).as_secs_f64(),
            ack_s: (t1 - start).as_secs_f64(),
        });
        match result {
            Ok(id) => admitted(i, id),
            Err(fate) => fates[i] = Some(fate),
        }
    }
    (sent, fates)
}

/// Attempted and failed counts: a refusal, an error, a lost result and
/// a result that fails its oracle all count as failed.
pub fn tally_fates(fates: &[Option<Fate>], wrong: &[bool]) -> (u64, u64) {
    let failed = fates
        .iter()
        .zip(wrong)
        .filter(|(f, &w)| !matches!(f, Some(Fate::Done { .. })) || w)
        .count();
    (fates.len() as u64, failed as u64)
}

/// Time to result of arrival `a` finished `done_s` after the run start.
pub fn ttr_s(a: &Arrival, done_s: f64) -> f64 {
    done_s - a.due_s
}

struct Key {
    function: &'static str,
    input: u32,
    table: usize,
}

fn spec(k: &Key, cache: CacheMode) -> JobSpec {
    JobSpec {
        source: JobSource::Function {
            name: k.function.to_owned(),
            analysis: AnalysisSpec::Op { input: k.input },
        },
        deadline_ms: None,
        ladder: false,
        label: None,
        waveform: false,
        cache,
    }
}

fn body(k: &Key, cache: &str) -> String {
    format!(
        r#"{{"jobs":[{{"function":"{}","analysis":"op","input":{},"cache":"{cache}"}}]}}"#,
        k.function, k.input
    )
}

/// The running workload: a bound server and its warmed cache.
pub struct ServeOp {
    seed: u64,
    runs: u64,
    client: WireClient,
    handle: ServerHandle,
    server: Option<JoinHandle<std::io::Result<ShutdownReport>>>,
    config: ServerConfig,
    keys: Vec<Key>,
    tables: Vec<TruthTable>,
    /// `"result":{…}` bytes of a direct engine run, per key.
    expected: Vec<String>,
    bodies: Vec<[String; 2]>,
    realize_s: f64,
    build_us: f64,
    key_us: f64,
}

impl ServeOp {
    /// Binds a default-configured server on a free loopback port and
    /// serves every key once with `"refresh"`, so later `"default"`
    /// submissions read the cache. The one override besides the address
    /// keeps connection workers at or below the core count, like every
    /// other thread pool the benchmark starts.
    pub fn setup(seed: u64) -> Result<ServeOp, String> {
        let defaults = ServerConfig::default();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            conn_workers: defaults.conn_workers.min(crate::nproc()),
            ..defaults
        };
        let server = Server::bind(config.clone(), Arc::new(PipelineJobBuilder::new()))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let mut tables = Vec::new();
        let mut keys = Vec::new();
        for (table, &function) in FUNCTIONS.iter().enumerate() {
            let tt = named_function(function)?;
            for input in 0..1u32 << tt.vars() {
                keys.push(Key {
                    function,
                    input,
                    table,
                });
            }
            tables.push(tt);
        }
        let bodies = keys
            .iter()
            .map(|k| [body(k, "default"), body(k, "refresh")])
            .collect();
        let me = ServeOp {
            seed,
            runs: 0,
            client: WireClient::new(addr.to_string()),
            handle,
            server: Some(thread),
            config,
            keys,
            tables,
            expected: Vec::new(),
            bodies,
            realize_s: 0.0,
            build_us: 0.0,
            key_us: 0.0,
        };
        for k in 0..me.keys.len() {
            let ids = me
                .client
                .submit_manifest(&me.bodies[k][1])
                .map_err(|e| format!("warm-up submit: {e}"))?;
            me.client
                .wait_done(ids[0], POLL)
                .map_err(|e| format!("warm-up wait: {e}"))?;
        }
        Ok(me)
    }

    fn check(&self, key: usize, body: &str) -> bool {
        if !body.contains(&self.expected[key]) {
            return false;
        }
        let v = Json::parse(body).ok().and_then(|d| {
            d.get("job")
                .and_then(|j| j.get("result"))
                .and_then(|r| r.get("out_v"))
                .and_then(Json::as_f64)
        });
        let k = &self.keys[key];
        v.is_some_and(|v| probe::output_matches(&self.tables[k.table], k.input, v, VDD))
    }
}

/// Supply of the §V bench the pipeline builds.
const VDD: f64 = 1.2;

/// Sums `fts_http_requests_total` samples whose labels contain `filter`.
fn http_requests(metrics: &str, filter: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("fts_http_requests_total{") && l.contains(filter))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// One `fts_histogram_<series>{name="…"}` value from a scrape.
fn histogram_value(metrics: &str, series: &str, name: &str) -> f64 {
    let needle = format!("fts_histogram_{series}{{name=\"{name}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// `(hits, misses, evictions)` from `GET /v1/cache`.
fn cache_counts(client: &WireClient) -> (f64, f64, f64) {
    let doc = client.cache_stats().ok().and_then(|b| Json::parse(&b).ok());
    let field = |n: &str| {
        doc.as_ref()
            .and_then(|d| d.get(n))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (field("hits"), field("misses"), field("evictions"))
}

impl Workload for ServeOp {
    fn prepare_oracle(&mut self) -> Result<(), String> {
        // Direct engine runs of every key with a separate builder: the
        // bytes `fts batch` would print, and the build/key timings.
        let builder = PipelineJobBuilder::new();
        let engine = Engine::new().threads(1);
        let mut realize_s = 0.0;
        let mut build_us = Vec::new();
        let mut key_us = Vec::new();
        for (i, k) in self.keys.iter().enumerate() {
            let s = spec(k, CacheMode::Bypass);
            let t = Instant::now();
            let built = build_job(&builder, &s, i).map_err(|e| e.to_string())?;
            let dt = t.elapsed().as_secs_f64();
            if k.input == 0 {
                realize_s += dt;
            } else {
                build_us.push(dt * 1e6);
            }
            let t = Instant::now();
            std::hint::black_box(cache_key(&built.job, built.out, false));
            key_us.push(t.elapsed().as_secs_f64() * 1e6);
            let report = engine.run(vec![built.job]);
            let result = outcome_json(&report.outcomes[0], built.out, false);
            self.expected.push(format!("\"result\":{result}"));
        }
        self.realize_s = realize_s;
        self.build_us = stats::median(&build_us);
        self.key_us = stats::median(&key_us);
        Ok(())
    }

    fn run(&mut self, seconds: f64, traced: bool, origin: Instant) -> Run {
        let sched = schedule(self.seed, self.runs, self.keys.len(), seconds);
        self.runs += 1;
        if traced {
            fts_telemetry::reset();
        }
        let before_metrics = self.client.metrics().unwrap_or_default();
        let before_cache = cache_counts(&self.client);
        let mut sender = Recorder::new(traced, origin, "sender");
        let mut collector = Recorder::new(traced, origin, "collector");
        let start = Instant::now() + Duration::from_millis(5);
        let (tx, rx) = mpsc::channel::<(usize, u64)>();
        let client = &self.client;
        let bodies = &self.bodies;
        let ((sent, mut fates), done) = std::thread::scope(|scope| {
            let rec = &mut collector;
            let collect = scope.spawn(move || {
                let mut done = Vec::new();
                for (i, id) in rx {
                    let r = rec.span("client.wait_done", i as u64, |_| client.wait_done(id, POLL));
                    let done_s = start.elapsed().as_secs_f64();
                    done.push((i, done_s, r));
                }
                done
            });
            let out = send_all(
                &sched,
                start,
                &mut sender,
                |rec, i, a| {
                    let r = rec.span("client.submit", i as u64, |_| {
                        client.submit_manifest(&bodies[a.key][usize::from(a.refresh)])
                    });
                    match r {
                        Ok(ids) if ids.len() == 1 => Ok(ids[0]),
                        Ok(ids) => Err(Fate::Error(format!("{} ids for one job", ids.len()))),
                        Err(ClientError::Api(e)) if e.status == 429 || e.status == 503 => {
                            Err(Fate::Refused(e.status))
                        }
                        Err(e) => Err(Fate::Error(e.to_string())),
                    }
                },
                |i, id| tx.send((i, id)).expect("collector outlives the sender"),
            );
            drop(tx);
            (out, collect.join().expect("collector thread"))
        });
        let sender_wall = sender.finish();
        let collector_wall = collector.finish();
        let window_s = sender_wall.max(collector_wall);
        let after_metrics = self.client.metrics().unwrap_or_default();
        let after_cache = cache_counts(&self.client);
        let tally = if traced {
            probe::tally()
        } else {
            Tally::default()
        };

        for (i, done_s, r) in done {
            fates[i] = Some(match r {
                Ok(body) => Fate::Done { done_s, body },
                Err(e) => Fate::Error(format!("lost result: {e}")),
            });
        }

        // Oracles, outside the timed window.
        let mut run = Run::default();
        let mut wrong = vec![false; sched.len()];
        let mut ttr_low = Vec::new();
        let mut ttr_high = Vec::new();
        let mut completed_high = 0usize;
        let mut wait_ms = Vec::new();
        let mut job_ms = Vec::new();
        let mut attempts = 0.0;
        let mut ran = 0usize;
        let mut refused = 0usize;
        for (i, (a, fate)) in sched.iter().zip(&fates).enumerate() {
            match fate {
                Some(Fate::Done { done_s, body }) => {
                    if !self.check(a.key, body) {
                        wrong[i] = true;
                        run.problem(format!("job {i} ({}) failed its oracle: {body}", a.key));
                        continue;
                    }
                    let ttr = ttr_s(a, *done_s);
                    if a.high {
                        ttr_high.push(ttr * 1e3);
                        completed_high += usize::from(ttr * 1e3 <= TTR_LIMIT_MS);
                    } else {
                        ttr_low.push(ttr * 1e3);
                    }
                    let row = Json::parse(body).ok();
                    let job = row.as_ref().and_then(|d| d.get("job"));
                    let num = |f: &str| job.and_then(|j| j.get(f)).and_then(Json::as_f64);
                    if a.refresh {
                        let wall = num("wall_s").unwrap_or(0.0);
                        job_ms.push(wall * 1e3);
                        wait_ms.push((done_s - sent[i].ack_s - wall) * 1e3);
                        attempts += num("attempts").unwrap_or(0.0);
                        ran += 1;
                    }
                }
                Some(Fate::Refused(status)) => {
                    refused += 1;
                    run.problem(format!("job {i} refused with {status}"));
                }
                Some(Fate::Error(e)) => run.problem(format!("job {i}: {e}")),
                None => run.problem(format!("job {i}: no result")),
            }
        }
        (run.attempted, run.failed) = tally_fates(&fates, &wrong);

        let lags: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
        let lags = stats::sorted(&lags);
        let lag_p99 = stats::percentile(&lags, 99.0);
        if lag_p99 > MAX_GEN_LAG_P99_MS {
            run.invalid = Some(format!(
                "sender fell behind schedule: lag p99 {lag_p99:.2} ms > {MAX_GEN_LAG_P99_MS} ms"
            ));
        }
        let high_s = seconds * (1.0 - LOW_SHARE);
        let high = stats::sorted(&ttr_high);
        let (tail_p, tail) = stats::tail_at(&high, TAIL_CAP);
        run.e2e
            .set("throughput_per_s", completed_high as f64 / high_s);
        run.e2e.set("ttr_p50_ms", stats::percentile(&high, 50.0));
        run.e2e.set("path_p50_ms", stats::median(&ttr_low));
        run.note("ttr_tail_percentile", format!("{tail_p}"));
        run.note("ttr_tail_ms", format!("{tail}"));
        run.note("ttr_samples_high", high.len().to_string());
        run.note("ttr_samples_low", ttr_low.len().to_string());
        run.note("completed_high", completed_high.to_string());
        run.note("submit_p50_ms", {
            let sub: Vec<f64> = sent.iter().map(|s| s.submit_s * 1e3).collect();
            format!("{}", stats::median(&sub))
        });
        run.note("gen_lag_ms_p99", format!("{lag_p99}"));

        if traced {
            let l = &mut run.layer;
            let submitted = sched.len().max(1) as f64;
            let sub = stats::sorted(&sent.iter().map(|s| s.submit_s * 1e3).collect::<Vec<_>>());
            l.set("client.ttr_ms.p99", tail);
            l.set("client.submit_ms.p50", stats::percentile(&sub, 50.0));
            l.set("client.submit_ms.p99", stats::percentile(&sub, 99.0));
            let polls = http_requests(&after_metrics, "path=\"/v1/jobs/{id}\"")
                - http_requests(&before_metrics, "path=\"/v1/jobs/{id}\"");
            let all = http_requests(&after_metrics, "") - http_requests(&before_metrics, "") - 2.0; // this window's own /metrics and /v1/cache reads
            l.set("client.polls_per_job", polls / submitted);
            l.set("client.http_requests_per_job", all / submitted);
            l.set("client.refused_share", refused as f64 / submitted);
            l.set("gen.lag_ms.p99", lag_p99);
            l.set("gen.lag_ms.max", lags.last().copied().unwrap_or(0.0));
            let latency = "server.http.latency_s";
            l.set(
                "service.handler_ms.p50",
                histogram_value(&after_metrics, "p50", latency) * 1e3,
            );
            l.set(
                "service.handler_ms.p99",
                histogram_value(&after_metrics, "p99", latency) * 1e3,
            );
            let wait = stats::sorted(&wait_ms);
            l.set("service.wait_ms.p50", stats::percentile(&wait, 50.0));
            l.set("service.wait_ms.p99", stats::percentile(&wait, 99.0));
            l.set("service.admitted", tally.c("server.jobs.admitted") as f64);
            l.set("service.rejected", tally.c("server.jobs.rejected") as f64);
            let hits = after_cache.0 - before_cache.0;
            let misses = after_cache.1 - before_cache.1;
            l.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
            l.set("cache.inserts", misses + ran as f64);
            l.set("cache.evictions", after_cache.2 - before_cache.2);
            l.set("cache.key_us.p50", self.key_us);
            l.set("build.realize_s", self.realize_s);
            l.set("build.job_us.p50", self.build_us);
            let jobs = stats::sorted(&job_ms);
            l.set("engine.job_ms.p50", stats::percentile(&jobs, 50.0));
            l.set("engine.job_ms.p99", stats::percentile(&jobs, 99.0));
            let workers = self.engine_threads() as f64;
            l.set(
                "engine.busy_share",
                jobs.iter().sum::<f64>() * 1e-3 / (workers * window_s),
            );
            l.set("engine.attempts_per_job", attempts / ran.max(1) as f64);
            l.set("engine.failed", tally.c("engine.jobs.failed") as f64);
            crate::op_layer_metrics(l, &tally, 1, ran, jobs.iter().sum::<f64>() * 1e-3);
            run.lanes.push((sender, sender_wall));
            run.lanes.push((collector, collector_wall));
        }
        run
    }

    fn envelope(&self) -> Vec<(String, String)> {
        vec![
            (
                "server_config".into(),
                quote(
                    "ServerConfig::default(), addr 127.0.0.1:0, conn_workers min(default, nproc)",
                ),
            ),
            ("sim_workers".into(), self.engine_threads().to_string()),
            ("conn_workers".into(), self.config.conn_workers.to_string()),
            ("queue_depth".into(), self.config.queue_depth.to_string()),
            (
                "cache_entries".into(),
                self.config.cache_entries.to_string(),
            ),
            ("client_threads".into(), "2".into()),
            ("low_rps".into(), format!("{LOW_RPS}")),
            ("high_rps".into(), format!("{HIGH_RPS}")),
            ("low_share".into(), format!("{LOW_SHARE}")),
            ("ttr_limit_ms".into(), format!("{TTR_LIMIT_MS}")),
            ("max_gen_lag_p99_ms".into(), format!("{MAX_GEN_LAG_P99_MS}")),
            ("poll_us".into(), POLL.as_micros().to_string()),
            ("refresh_share".into(), format!("{REFRESH_SHARE}")),
            ("functions".into(), quote(&FUNCTIONS.join(","))),
            ("keys".into(), self.keys.len().to_string()),
        ]
    }

    fn close(mut self: Box<Self>) -> Result<(), String> {
        self.handle.shutdown();
        match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl ServeOp {
    fn engine_threads(&self) -> usize {
        match self.config.workers {
            0 => crate::nproc(),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(n: usize, gap_s: f64) -> Vec<Arrival> {
        (0..n)
            .map(|k| Arrival {
                due_s: (k + 1) as f64 * gap_s,
                key: 0,
                refresh: false,
                high: true,
            })
            .collect()
    }

    #[test]
    fn a_generator_stall_lengthens_later_requests_ttr() {
        // Eight requests due every 5 ms; the fourth submission stalls
        // for 60 ms. Every "server" answers 1 ms after its submission.
        let sched = arrivals(8, 0.005);
        let start = Instant::now();
        let mut rec = Recorder::new(false, start, "sender");
        let mut acks = Vec::new();
        let (sent, fates) = send_all(
            &sched,
            start,
            &mut rec,
            |_, i, _| {
                if i == 3 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                Ok(i as u64)
            },
            |i, _| acks.push(i),
        );
        assert!(fates.iter().all(Option::is_none));
        assert_eq!(acks, (0..8).collect::<Vec<_>>());
        let ttr: Vec<f64> = sched
            .iter()
            .zip(&sent)
            .map(|(a, s)| ttr_s(a, s.ack_s + 0.001))
            .collect();
        // Requests due while the sender was stuck pay for the stall ...
        for k in 4..8 {
            assert!(ttr[k] > 0.030, "request {k} ttr {:.4}", ttr[k]);
            assert!(
                sent[k].lag_s > 0.030,
                "request {k} lag {:.4}",
                sent[k].lag_s
            );
        }
        // ... and the ones before it do not.
        for (k, t) in ttr.iter().enumerate().take(3) {
            assert!(*t < 0.030, "request {k} ttr {t:.4}");
        }
    }

    #[test]
    fn a_429_counts_as_failed() {
        let done = Some(Fate::Done {
            done_s: 0.1,
            body: String::new(),
        });
        let fates = vec![
            done.clone(),
            Some(Fate::Refused(429)),
            done.clone(),
            Some(Fate::Refused(503)),
            Some(Fate::Error("lost".into())),
            None,
            done,
        ];
        let wrong = vec![false, false, false, false, false, false, true];
        assert_eq!(tally_fates(&fates, &wrong), (7, 5));
        assert_eq!(
            tally_fates(&fates[..2], &wrong[..2]),
            (2, 1),
            "one 429 of two attempts is a failed share of 0.5"
        );
    }

    #[test]
    fn schedule_is_seeded_and_keeps_its_rates() {
        let a = schedule(11, 0, 44, 10.0);
        assert_eq!(a, schedule(11, 0, 44, 10.0));
        assert_ne!(a, schedule(12, 0, 44, 10.0));
        let low = a.iter().filter(|x| !x.high).count() as f64;
        let high = a.iter().filter(|x| x.high).count() as f64;
        assert!((low / (10.0 * LOW_SHARE) / LOW_RPS - 1.0).abs() < 0.15);
        assert!((high / (10.0 * (1.0 - LOW_SHARE)) / HIGH_RPS - 1.0).abs() < 0.05);
        let refresh = a.iter().filter(|x| x.refresh).count() as f64 / a.len() as f64;
        assert!((refresh - REFRESH_SHARE).abs() < 0.05);
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }
}
