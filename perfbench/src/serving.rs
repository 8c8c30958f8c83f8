//! The two serving workloads, `schema_prefill` (open loop) and
//! `decode_stream` (closed loop), driven through the engine's public API
//! from one thread.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use lm4db_loadgen::{LoadGen, Phase, PromptShape, Rng, TenantSpec};
use lm4db_serve::{Decode, Engine, EngineOptions, Outcome, Request, RequestId, Response, Stats};
use lm4db_tokenize::BOS;
use lm4db_transformer::generate::{beam, NextToken, Unconstrained};
use lm4db_transformer::{greedy_cached, GptModel, IncrementalSession, KvCache, ModelConfig};

use crate::stats::{mean, median, quantile, share, Series};
use crate::trace::Tracer;
use crate::{Metrics, Window};

/// Shared by both serving workloads. Its 4 MB or so of weights do not fit in
/// one core's L2, so every token streams them from L3, as a large model
/// streams them from memory.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        vocab_size: 1024,
        max_seq_len: 256,
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        dropout: 0.0,
    }
}

/// Fixed weight seed: the model is the same for every workload seed.
const WEIGHT_SEED: u64 = 2022;
/// Workload seed of the warm-up traffic that fills the prefix cache.
const WARM_SEED: u64 = 0x3A7E;
/// Never emitted, so every request runs to its budget.
const STOP: usize = usize::MAX;

/// `schema_prefill` offered load, in arrivals per scheduler step: about a
/// fifth of the 1.4 at which the 8-slot batch would stay full. At this
/// load the median token gap is a decode step and the 99th percentile a
/// prefill stall; near 0.7 the median falls between the two and jumps.
const ARRIVALS_PER_TICK: f64 = 0.3;
/// Prompts that start with their application's shared header (the schema),
/// and short answers.
const SHAPE: PromptShape = PromptShape {
    vocab: 1024,
    max_prompt: 64,
    max_new: 16,
};

/// `decode_stream` logical clients (= the engine's `max_batch`).
const CLIENTS: u64 = 8;

/// The first `FINGERPRINT_REQS` requests of a window (in submission order)
/// make up the output fingerprint; every window must complete them.
const FINGERPRINT_REQS: usize = 48;
/// Requests of the fingerprinted set re-decoded by the reference decoders.
const CHECKED_REQS: usize = 6;
/// Requests replayed through `KvCache` in the traced run.
const REPLAYED_REQS: usize = 12;

/// SLO limits: a request meets its SLO when its time to first token and
/// every gap between its tokens stay within these. Frozen at about three
/// times the 99th-percentile step of this benchmark's first runs (see the
/// README), so a miss means a real slowdown rather than a preempted core.
const SLO_TTFT_MS: f64 = 150.0;
const SLO_ITL_MS: f64 = 150.0;

/// Which serving workload to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop Poisson arrivals of the seven-application mix.
    SchemaPrefill,
    /// Closed loop of `CLIENTS` greedy streams with short unique prompts.
    DecodeStream,
}

/// Builds the serving model.
pub fn build_model() -> GptModel {
    GptModel::new(model_config(), WEIGHT_SEED)
}

fn tenant() -> TenantSpec {
    TenantSpec {
        name: "apps",
        rate: ARRIVALS_PER_TICK,
        tier: 0,
        weight: 1,
        slo_steps: 0,
        slo_wall_ms: 0,
        mix: [1.0; 7],
    }
}

/// The `decode_stream` request client `c` sends as its `j`-th: a unique
/// prompt of 8–16 tokens (BOS is the only shared token) and a greedy
/// budget of 96–128 tokens.
fn stream_request(seed: u64, c: u64, j: u64) -> Request<'static> {
    let mut rng = Rng::derive(seed, &[0xDEC0, c, j]);
    let len = 8 + rng.below(9) as usize;
    let mut prompt = vec![BOS];
    prompt.extend((1..len).map(|_| 4 + rng.below(1020) as usize));
    Request::greedy(prompt, 96 + rng.below(33) as usize, STOP)
}

/// A ready engine: caches and worker threads are warm. For
/// `schema_prefill` one request of each application fills the prefix cache
/// with the seven shared headers; for `decode_stream` one short stream per
/// client spins up the pool. Warm-up traffic is seed-independent.
pub fn warm_engine(model: &GptModel, kind: Kind) -> Engine<'_> {
    let mut engine = Engine::with_options(
        model,
        EngineOptions {
            max_batch: 8,
            ..EngineOptions::default()
        },
    );
    match kind {
        Kind::SchemaPrefill => {
            let gen = LoadGen::new(
                WARM_SEED,
                SHAPE,
                vec![tenant()],
                vec![Phase::poisson(1 << 20, 1.0)],
            );
            let mut seen = [false; 7];
            let mut tick = 0;
            while seen.iter().any(|s| !s) {
                for a in gen.arrivals_at(tick) {
                    if !std::mem::replace(&mut seen[a.workload.index()], true) {
                        engine.submit(a.to_request());
                    }
                }
                tick += 1;
            }
        }
        Kind::DecodeStream => {
            for c in 0..CLIENTS {
                let mut r = stream_request(WARM_SEED, c, 0);
                r.decode = Decode::Greedy {
                    max_new: 4,
                    stop: STOP,
                };
                engine.submit(r);
            }
        }
    }
    engine.run();
    engine
}

/// Prefill tokens of steady-state warm-up traffic, as a multiple of the
/// prefix cache's token budget.
const FILL_BUDGETS: f64 = 1.1;

/// Brings the prefix cache to the state it keeps for the rest of a long
/// run: full, so that every insert evicts. Sends seed-independent requests
/// of the workload's prompt shape, each decoding one token, until the
/// engine has prefilled `FILL_BUDGETS` times the cache's budget. Without
/// this the first seconds of a window run with a cache that never evicts,
/// several times faster than the rest.
fn fill_prefix_cache(engine: &mut Engine<'_>, kind: Kind) {
    let budget = EngineOptions::default().prefix_cache_tokens as f64;
    let start = engine.stats().prefill_tokens;
    let gen = LoadGen::new(
        WARM_SEED,
        SHAPE,
        vec![tenant()],
        vec![Phase::poisson(u64::MAX / 2, 1.0)],
    );
    let mut round = 0;
    while ((engine.stats().prefill_tokens - start) as f64) < FILL_BUDGETS * budget {
        let prompts: Vec<Vec<usize>> = match kind {
            Kind::SchemaPrefill => gen
                .arrivals_at(round)
                .into_iter()
                .map(|a| a.prompt)
                .collect(),
            Kind::DecodeStream => (0..CLIENTS)
                .map(|c| stream_request(WARM_SEED, c, round + 1).prompt)
                .collect(),
        };
        for prompt in prompts {
            engine.submit(Request::greedy(prompt, 1, STOP));
        }
        engine.run();
        round += 1;
    }
}

/// One request's life as the runner sees it; times are seconds since the
/// window started.
struct Rec {
    req: Request<'static>,
    due: f64,
    /// Start of the step that admitted the request.
    admit_start: Option<f64>,
    /// End of the step that admitted it: the engine picks a request's
    /// first token in its admitting step.
    first: Option<f64>,
    /// Prompt tokens the prefix cache restored at admission, when the
    /// request was the only one admitted in its step.
    restored: Option<u64>,
    max_gap_ms: f64,
    done: Option<f64>,
    resp: Option<Response>,
}

/// Engine counters the runner diffs step by step.
#[derive(Clone, Copy, Default)]
struct Counters {
    admitted: u64,
    prefill: u64,
    cached: u64,
    decoded: u64,
    steps: u64,
    occupancy: u64,
}

impl Counters {
    fn of(s: &Stats) -> Self {
        Counters {
            admitted: s.tenants.get(&0).map_or(0, |t| t.admitted),
            prefill: s.prefill_tokens,
            cached: s.cached_prefix_tokens,
            decoded: s.decoded_tokens,
            steps: s.steps,
            occupancy: s.batch_occupancy_sum,
        }
    }
}

/// The runner: submits requests, steps the engine, and attributes each
/// step's outcome to requests from outside the engine.
struct Runner<'m> {
    engine: Engine<'m>,
    t0: Instant,
    tracer: Tracer,
    recs: Vec<Rec>,
    ids: HashMap<RequestId, usize>,
    /// Submitted, not yet admitted, in submission order. Admission is FIFO
    /// within the single tenant, so the per-tenant `admitted` counter says
    /// how many of these the last step took.
    waiting: VecDeque<usize>,
    /// Admitted and not yet retired: each gets one token per step.
    active: Vec<usize>,
    outstanding: usize,
    base: Counters,
    last: Counters,
    /// Engine counters when the fingerprinted requests had all retired.
    fixed_work: Option<Counters>,
    failed: u64,
    step_ms: Vec<f64>,
    prefill_step_ms: Vec<f64>,
    decode_step_ms: Vec<f64>,
    /// Token gaps, stamped with the start of their step.
    itl_ms: Series,
    submit_us: Vec<f64>,
    lag_ms: Vec<f64>,
    arrivals_us: Vec<f64>,
    busy_s: f64,
    /// Virtual ticks driven, and those with nothing to run.
    ticks: u64,
    idle_ticks: u64,
}

impl<'m> Runner<'m> {
    fn new(engine: Engine<'m>, tracer: Tracer, t0: Instant) -> Self {
        let base = Counters::of(&engine.stats());
        Runner {
            engine,
            t0,
            tracer,
            recs: Vec::new(),
            ids: HashMap::new(),
            waiting: VecDeque::new(),
            active: Vec::new(),
            outstanding: 0,
            base,
            last: base,
            fixed_work: None,
            failed: 0,
            step_ms: Vec::new(),
            prefill_step_ms: Vec::new(),
            decode_step_ms: Vec::new(),
            itl_ms: Series::default(),
            submit_us: Vec::new(),
            lag_ms: Vec::new(),
            arrivals_us: Vec::new(),
            busy_s: 0.0,
            ticks: 0,
            idle_ticks: 0,
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    fn now(&self) -> f64 {
        self.secs(Instant::now())
    }

    fn submit(&mut self, req: Request<'static>, due: f64) {
        let key = self.recs.len();
        let sent = req.clone();
        let start = Instant::now();
        let id = self.engine.submit(sent);
        let end = Instant::now();
        self.tracer
            .record("serve.submit", key as u64 + 1, start, end);
        self.submit_us.push((end - start).as_secs_f64() * 1e6);
        self.lag_ms.push((self.secs(start) - due).max(0.0) * 1e3);
        self.ids.insert(id, key);
        self.waiting.push_back(key);
        self.outstanding += 1;
        self.recs.push(Rec {
            req,
            due,
            admit_start: None,
            first: None,
            restored: None,
            max_gap_ms: 0.0,
            done: None,
            resp: None,
        });
    }

    /// One scheduler step; returns the requests that retired in it.
    fn step(&mut self) -> Vec<usize> {
        let start = Instant::now();
        self.engine.step();
        let end = Instant::now();
        self.tracer.record("serve.step", 0, start, end);
        let (s0, s1) = (self.secs(start), self.secs(end));
        let ms = (s1 - s0) * 1e3;
        self.step_ms.push(ms);
        self.busy_s += s1 - s0;
        for &i in &self.active {
            self.itl_ms.push(s0, ms);
            let r = &mut self.recs[i];
            r.max_gap_ms = r.max_gap_ms.max(ms);
        }
        let engine = &self.engine;
        let now = self
            .tracer
            .time("serve.stats", 0, || Counters::of(&engine.stats()));
        let admitted = (now.admitted - self.last.admitted) as usize;
        let restored = now.cached - self.last.cached;
        for _ in 0..admitted {
            let i = self
                .waiting
                .pop_front()
                .expect("engine admitted a request it was never sent");
            let r = &mut self.recs[i];
            r.admit_start = Some(s0);
            r.first = Some(s1);
            r.restored = (admitted == 1).then_some(restored);
            self.active.push(i);
        }
        let prefill = now.prefill - self.last.prefill;
        let decoded = now.decoded - self.last.decoded;
        if prefill > 0 {
            self.prefill_step_ms.push(ms);
        } else if decoded > 0 {
            self.decode_step_ms.push(ms);
        }
        self.last = now;
        let engine = &mut self.engine;
        let responses = self
            .tracer
            .time("serve.take_responses", 0, || engine.take_responses());
        let mut retired = Vec::with_capacity(responses.len());
        for resp in responses {
            let i = self.ids[&resp.id];
            if resp.outcome != Outcome::Finished {
                self.failed += 1;
            }
            self.active.retain(|&a| a != i);
            self.waiting.retain(|&w| w != i);
            self.outstanding -= 1;
            self.recs[i].done = Some(s1);
            self.recs[i].resp = Some(resp);
            retired.push(i);
        }
        if self.fixed_work.is_none()
            && self.recs.len() >= FINGERPRINT_REQS
            && self.recs[..FINGERPRINT_REQS]
                .iter()
                .all(|r| r.done.is_some())
        {
            self.fixed_work = Some(self.last);
        }
        retired
    }

    fn drain(&mut self) {
        while self.outstanding > 0 {
            self.step();
        }
    }
}

/// Runs the open-loop `schema_prefill` window on the generator's virtual
/// clock: one tick per scheduler step. Each tick's arrivals are submitted
/// whether or not the engine has kept up, so the queue can grow; a tick
/// with nothing to run takes no wall time. Requests are due when their
/// tick starts.
fn drive_open(d: &mut Runner<'_>, seed: u64, seconds: f64) {
    let gen = LoadGen::new(
        seed,
        SHAPE,
        vec![tenant()],
        vec![Phase::poisson(u64::MAX / 2, 1.0)],
    );
    let mut tick = 0;
    while d.now() < seconds {
        let due = d.now();
        let start = Instant::now();
        let arrivals = gen.arrivals_at(tick);
        let end = Instant::now();
        d.tracer.record("loadgen.arrivals_at", 0, start, end);
        d.arrivals_us.push((end - start).as_secs_f64() * 1e6);
        for a in arrivals {
            d.submit(a.to_request(), due);
        }
        if d.outstanding > 0 {
            d.step();
        } else {
            d.idle_ticks += 1;
        }
        d.ticks += 1;
        tick += 1;
    }
    d.drain();
}

/// Runs the closed-loop `decode_stream` window: each client sends its next
/// request as soon as the previous reply arrives, until time is up.
fn drive_closed(d: &mut Runner<'_>, seed: u64, seconds: f64) {
    // Request key -> (client, request number).
    let mut sent: HashMap<usize, (u64, u64)> = HashMap::new();
    let send = |d: &mut Runner<'_>, sent: &mut HashMap<usize, (u64, u64)>, c: u64, j: u64| {
        let now = d.now();
        let start = Instant::now();
        let req = stream_request(seed, c, j);
        let end = Instant::now();
        d.tracer.record("loadgen.request", 0, start, end);
        d.arrivals_us.push((end - start).as_secs_f64() * 1e6);
        sent.insert(d.recs.len(), (c, j));
        d.submit(req, now);
    };
    for c in 0..CLIENTS {
        send(d, &mut sent, c, 0);
    }
    while d.now() < seconds {
        for i in d.step() {
            let (c, j) = sent[&i];
            if d.now() < seconds {
                send(d, &mut sent, c, j + 1);
            }
        }
    }
    d.drain();
}

/// The model `generate::beam` re-decodes a beam request with: incremental
/// sessions, where each hypothesis forks the cache of its longest fed
/// prefix, so the reference costs one feed per new token as the engine
/// does instead of re-feeding every prefix.
struct ForkedSessions<'m> {
    model: &'m GptModel,
    caches: Vec<KvCache>,
}

impl NextToken for ForkedSessions<'_> {
    fn vocab_size(&self) -> usize {
        self.model.config().vocab_size
    }

    fn next_logits(&mut self, prefix: &[usize]) -> Vec<f32> {
        let best = self
            .caches
            .iter()
            .filter(|c| c.len() <= prefix.len() && c.tokens() == &prefix[..c.len()])
            .max_by_key(|c| c.len())
            .cloned();
        let mut session = IncrementalSession::from_cache(
            self.model,
            best.unwrap_or_else(|| KvCache::new(self.model)),
        );
        let logits = if session.position() == prefix.len() {
            session.cache().last_logits().to_vec()
        } else {
            session.feed_all(&prefix[session.position()..]).to_vec()
        };
        self.caches.push(session.into_cache());
        if self.caches.len() > 16 {
            self.caches.remove(0);
        }
        logits
    }
}

/// Compares one engine response bit for bit with the single-request
/// decoder the engine mirrors.
fn check_one(model: &GptModel, req: &Request<'_>, resp: &Response) -> Result<(), String> {
    if resp.outcome != Outcome::Finished {
        return Err(format!("outcome {:?}", resp.outcome));
    }
    match req.decode {
        Decode::Greedy { max_new, stop } => {
            let want = greedy_cached(model, &req.prompt, max_new, stop);
            if want != resp.tokens {
                return Err(format!(
                    "greedy tokens differ from greedy_cached: {:?} vs {:?}",
                    resp.tokens, want
                ));
            }
        }
        Decode::Beam {
            width,
            max_new,
            stop,
        } => {
            let mut lm = ForkedSessions {
                model,
                caches: Vec::new(),
            };
            let want = beam(&mut lm, &req.prompt, width, max_new, stop, &Unconstrained);
            let same = want.len() == resp.hyps.len()
                && want.iter().zip(&resp.hyps).all(|(a, b)| {
                    a.ids == b.ids
                        && a.log_prob.to_bits() == b.log_prob.to_bits()
                        && a.finished == b.finished
                });
            if !same {
                return Err("beam hypotheses differ from generate::beam".into());
            }
        }
        Decode::Score { prefix_len } => {
            let mut session = IncrementalSession::new(model);
            let want = lm4db_lm::score_continuation(
                &mut session,
                &req.prompt[..prefix_len],
                &req.prompt[prefix_len..],
            );
            if want.to_bits() != resp.score.to_bits() {
                return Err(format!(
                    "score {} differs from score_continuation {want}",
                    resp.score
                ));
            }
        }
    }
    Ok(())
}

/// Fingerprint of the first `FINGERPRINT_REQS` responses, in submission
/// order: outcome, tokens, hypotheses with their log-probability bits, and
/// score bits.
fn fingerprint(recs: &[Rec]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in &recs[..FINGERPRINT_REQS] {
        let resp = r.resp.as_ref().expect("fingerprinted request retired");
        (resp.outcome == Outcome::Finished).hash(&mut h);
        resp.tokens.hash(&mut h);
        resp.hyps.len().hash(&mut h);
        for hyp in &resp.hyps {
            (&hyp.ids, hyp.log_prob.to_bits(), hyp.finished).hash(&mut h);
        }
        resp.score.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Replays sampled requests through `KvCache` directly, outside the
/// engine: `feed_all` over each request's own uncached prompt tail, then
/// `feed` over its generated tokens at their real context lengths.
/// Only requests admitted alone are replayed, since only for them is the
/// restored prefix known. Returns µs per prefill token, µs per decode
/// token, and how many requests were replayed.
fn replay(
    model: &GptModel,
    recs: &[Rec],
    picks: &[usize],
    tracer: &mut Tracer,
) -> (f64, f64, usize) {
    let (mut pf_s, mut pf_n, mut dec_s, mut dec_n, mut replayed) =
        (0.0, 0usize, 0.0, 0usize, 0usize);
    for &i in picks {
        let r = &recs[i];
        let (Some(restored), Some(resp)) = (r.restored, r.resp.as_ref()) else {
            continue;
        };
        let target = match r.req.decode {
            Decode::Score { prefix_len } => prefix_len,
            _ => r.req.prompt.len(),
        };
        replayed += 1;
        let restored = (restored as usize).min(target - 1);
        let mut cache = KvCache::new(model);
        if restored > 0 {
            cache.feed_all(model, &r.req.prompt[..restored]);
        }
        let tail = &r.req.prompt[restored..target];
        let start = Instant::now();
        std::hint::black_box(cache.feed_all(model, tail));
        let end = Instant::now();
        tracer.record("transformer.feed_all", i as u64 + 1, start, end);
        pf_s += (end - start).as_secs_f64();
        pf_n += tail.len();
        let generated: Vec<usize> = match r.req.decode {
            Decode::Score { .. } => r.req.prompt[target..].to_vec(),
            _ => resp.tokens.clone(),
        };
        for &t in generated
            .iter()
            .take(model.config().max_seq_len - cache.len())
        {
            let start = Instant::now();
            std::hint::black_box(cache.feed(model, t));
            let end = Instant::now();
            tracer.record("transformer.feed", i as u64 + 1, start, end);
            dec_s += (end - start).as_secs_f64();
            dec_n += 1;
        }
    }
    (
        share(pf_s * 1e6, pf_n as f64),
        share(dec_s * 1e6, dec_n as f64),
        replayed,
    )
}

/// Seeded choice of `n` distinct indices below `len`.
pub fn pick(seed: u64, salt: u64, len: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::derive(seed, &[salt]);
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..n.min(len) {
        let j = i + rng.below((len - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(n.min(len));
    idx.sort_unstable();
    idx
}

/// Bytes one sequence's `KvCache` reserves at construction (keys and
/// values for `max_seq_len` positions in every layer, plus token ids and
/// logits), computed from the model configuration.
pub fn kv_bytes(cfg: &ModelConfig) -> f64 {
    (2 * cfg.n_layers * cfg.max_seq_len * cfg.d_model * 4
        + cfg.max_seq_len * 8
        + cfg.vocab_size * 4) as f64
}

/// Runs one measured window on a warmed engine and checks its outputs.
pub fn window(
    model: &GptModel,
    mut engine: Engine<'_>,
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    fill_prefix_cache(&mut engine, kind);
    let t0 = Instant::now();
    let mut d = Runner::new(engine, Tracer::new(traced, t0), t0);
    match kind {
        Kind::SchemaPrefill => drive_open(&mut d, seed, seconds),
        Kind::DecodeStream => drive_closed(&mut d, seed, seconds),
    }
    let wall = d.now();

    let (mut ttft, mut e2e, mut met, mut tokens, mut done) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let mut queue_ms = Vec::new();
    for r in &d.recs {
        let ok = match (r.first, r.done, r.resp.as_ref()) {
            (Some(first), Some(end), Some(resp)) => {
                ttft.push(r.due, (first - r.due) * 1e3);
                e2e.push(r.due, (end - r.due) * 1e3);
                tokens.push(r.due, resp.tokens.len() as f64);
                done.push(r.due, 1.0);
                queue_ms.push((r.admit_start.unwrap_or(first) - r.due).max(0.0) * 1e3);
                resp.outcome == Outcome::Finished
                    && (first - r.due) * 1e3 <= SLO_TTFT_MS
                    && r.max_gap_ms <= SLO_ITL_MS
            }
            _ => false,
        };
        met.push(r.due, f64::from(u8::from(ok)));
    }
    let sent = d.recs.len();

    let mut check = Ok(());
    if sent < FINGERPRINT_REQS || d.recs[..FINGERPRINT_REQS].iter().any(|r| r.resp.is_none()) {
        check = Err(format!(
            "only {sent} requests sent; the fingerprint needs the first {FINGERPRINT_REQS} to complete"
        ));
    }
    let fp = if check.is_ok() {
        fingerprint(&d.recs)
    } else {
        0
    };
    if check.is_ok() {
        for i in pick(seed, 0xC4EC, FINGERPRINT_REQS, CHECKED_REQS) {
            let r = &d.recs[i];
            if let Err(e) = check_one(model, &r.req, r.resp.as_ref().expect("retired")) {
                check = Err(format!("request {i}: {e}"));
                break;
            }
        }
    }
    if check.is_ok() && d.failed > 0 {
        check = Err(format!("{} requests failed or were rejected", d.failed));
    }

    let mut m = Metrics::default();
    m.put("ttft_ms_p50", ttft.quantile(seconds, 0.5), ttft.len());
    m.put("ttft_ms_p90", ttft.quantile(seconds, 0.9), ttft.len());
    m.put(
        "itl_ms_p50",
        d.itl_ms.quantile(seconds, 0.5),
        d.itl_ms.len(),
    );
    m.put(
        "itl_ms_p99",
        d.itl_ms.quantile(seconds, 0.99),
        d.itl_ms.len(),
    );
    m.put("e2e_ms_p50", e2e.quantile(seconds, 0.5), e2e.len());
    m.put("e2e_ms_p90", e2e.quantile(seconds, 0.9), e2e.len());
    m.put("slo_attain", met.mean(seconds), sent);
    m.put("goodput_rps", met.rate(seconds), sent);
    m.put("decode_tok_s", tokens.rate(seconds), tokens.len());
    m.put("questions_per_s", done.rate(seconds), done.len());
    m.put(
        "exec_acc",
        if check.is_ok() { 1.0 } else { 0.0 },
        CHECKED_REQS,
    );

    let fixed = d.fixed_work.unwrap_or(d.last);
    let fixed_steps = fixed.steps - d.base.steps;
    m.put(
        "loadgen.arrivals_us_mean",
        mean(&d.arrivals_us),
        d.arrivals_us.len(),
    );
    m.put(
        "loadgen.submit_lag_ms_p99",
        quantile(&d.lag_ms, 0.99),
        d.lag_ms.len(),
    );
    m.put(
        "loadgen.idle_share",
        share(d.idle_ticks as f64, d.ticks as f64),
        d.ticks as usize,
    );
    m.put(
        "serve.prefill_step_ms_p50",
        median(&d.prefill_step_ms),
        d.prefill_step_ms.len(),
    );
    m.put(
        "serve.decode_step_ms_p50",
        median(&d.decode_step_ms),
        d.decode_step_ms.len(),
    );
    m.put("serve.step_ms_p50", median(&d.step_ms), d.step_ms.len());
    m.put(
        "serve.step_ms_p99",
        quantile(&d.step_ms, 0.99),
        d.step_ms.len(),
    );
    m.put("serve.busy_share", d.busy_s / wall, 1);
    m.put(
        "serve.submit_us_p50",
        median(&d.submit_us),
        d.submit_us.len(),
    );
    m.put("serve.queue_wait_ms_p50", median(&queue_ms), queue_ms.len());
    m.put(
        "serve.queue_wait_ms_p90",
        quantile(&queue_ms, 0.9),
        queue_ms.len(),
    );
    let (cached, prefilled) = (
        (d.last.cached - d.base.cached) as f64,
        (d.last.prefill - d.base.prefill) as f64,
    );
    m.put(
        "serve.prefix_hit_share",
        share(cached, cached + prefilled),
        1,
    );
    let steps = (d.last.steps - d.base.steps) as f64;
    m.put(
        "serve.batch_occupancy_mean",
        share((d.last.occupancy - d.base.occupancy) as f64, steps),
        1,
    );
    m.put("serve.steps", fixed_steps as f64, 1);
    m.put(
        "serve.prefill_tokens",
        (fixed.prefill - d.base.prefill) as f64,
        1,
    );
    m.put(
        "serve.decoded_tokens",
        (fixed.decoded - d.base.decoded) as f64,
        1,
    );
    m.put(
        "transformer.kv_bytes_per_request",
        kv_bytes(model.config()),
        1,
    );

    let mut notes = vec![format!(
        "fixed work for the count metrics: the first {FINGERPRINT_REQS} requests, done in {fixed_steps} steps"
    )];
    if traced && check.is_ok() {
        let picks = pick(seed, 0x4E9A, sent, REPLAYED_REQS);
        let (pf, dec, n) = replay(model, &d.recs, &picks, &mut d.tracer);
        m.put("transformer.prefill_us_per_token", pf, n);
        m.put("transformer.decode_us_per_token", dec, n);
        notes.push(format!(
            "replayed {n} requests through KvCache::feed_all / KvCache::feed"
        ));
    }

    Window {
        metrics: m,
        attempted: sent as u64,
        failed: d.failed,
        fingerprint: fp,
        check,
        wall_s: wall,
        tracer: d.tracer,
        notes,
    }
}
