//! `text2sql_app`: the paper's application end to end. A closed loop
//! translates seeded questions in batches of 8 with the fine-tuned
//! semantic parser under the PICARD-style grammar constraint, executes
//! each predicted query and scores it against the gold query.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use lm4db_corpus::{make_domain, Domain, DomainKind};
use lm4db_loadgen::Rng;
use lm4db_sql::{run_sql, Catalog};
use lm4db_text2sql::{
    generate, score_one, DecodeMode, Example, SemanticParser, SqlTrie, TrieConstraint,
};
use lm4db_tokenize::{Tokenizer, BOS};
use lm4db_transformer::{ModelConfig, TokenMask};

use crate::serving::{kv_bytes, pick};
use crate::stats::{median, share, Series};
use crate::trace::Tracer;
use crate::{Metrics, Window};

/// Questions per `predict_batch` call.
const BATCH: usize = 8;
/// Distinct questions per seed; the loop cycles through them, so every
/// window answers each at least once and `exec_acc` is a pure function
/// of the seed. 64 distinct batches keep one seed's batch costs and
/// accuracy close to another's.
const POOL: usize = 512;
/// Questions re-translated one at a time in the correctness pass.
const CHECKED: usize = 4;

/// SLO limits for one batch: time to its first executed answer, and its
/// token gap. Frozen well above the slowest values of this benchmark's
/// first runs (see the README), so a miss means a real slowdown rather
/// than a preempted core.
const SLO_FIRST_MS: f64 = 100.0;
const SLO_GAP_MS: f64 = 10.0;

/// Executed-correct answers out of `POOL` for seeds `0..64` at this
/// commit's parser (regenerate with `--record-exec`). A run on one of these
/// seeds must reproduce its value exactly.
const RECORDED_EXEC: [u16; 64] = [
    412, 437, 429, 417, 438, 434, 430, 423, 415, 434, 426, 445, 429, 434, 422, 429, 433, 429, 419,
    423, 429, 418, 430, 426, 425, 431, 432, 424, 428, 431, 430, 430, 429, 427, 425, 436, 433, 436,
    418, 428, 430, 415, 421, 428, 426, 415, 417, 424, 428, 431, 434, 420, 423, 429, 422, 434, 427,
    419, 438, 442, 424, 423, 426, 429,
];

/// Exp C's parser configuration.
fn parser_config() -> ModelConfig {
    ModelConfig {
        max_seq_len: 96,
        d_model: 64,
        n_heads: 4,
        n_layers: 3,
        d_ff: 256,
        dropout: 0.0,
        vocab_size: 0,
    }
}

/// The fine-tuned application: Exp C's domain, training pairs and
/// fine-tuning schedule.
pub struct App {
    domain: Domain,
    catalog: Catalog,
    parser: SemanticParser,
}

/// Fine-tunes the parser exactly as Exp C does (Employees domain, 30 rows,
/// 240 pairs, 16 epochs).
pub fn setup() -> App {
    let domain = make_domain(DomainKind::Employees, 30, 7);
    let catalog = domain.catalog();
    let train = generate(&domain, 240, 1);
    let mut parser = SemanticParser::new(
        parser_config(),
        &train,
        SqlTrie::for_domain(&domain),
        5,
        700,
    );
    parser.fit(&train, 16, 8, 3e-3);
    App {
        domain,
        catalog,
        parser,
    }
}

/// The question pool for a workload seed, drawn from a stream that never
/// coincides with the training (1) or Exp C test (900, 1300) seeds.
fn pool(app: &App, seed: u64) -> Vec<Example> {
    let qseed = Rng::derive(seed, &[0x7E57]).next_u64() | (1 << 32);
    generate(&app.domain, POOL, qseed)
}

/// The parser's prompt for a question (`BOS` then `q : <question> a :`),
/// rebuilt here to replay the grammar mask on its outputs.
fn prompt_ids(app: &App, question: &str) -> Vec<usize> {
    let mut ids = vec![BOS];
    ids.extend(
        app.parser
            .tokenizer()
            .encode(&format!("q : {question} a :")),
    );
    ids
}

/// Runs one measured window and checks its outputs.
pub fn window(app: &App, seed: u64, seconds: f64, traced: bool) -> Window {
    let pool = pool(app, seed);
    let t0 = Instant::now();
    let mut tr = Tracer::new(traced, t0);
    let secs = |t: Instant| (t - t0).as_secs_f64();
    let mut answers: Vec<Option<Option<String>>> = vec![None; POOL];
    let mut exec_ok = vec![false; POOL];
    let mut check: Result<(), String> = Ok(());
    let (mut first_ms, mut itl_ms, mut e2e_ms, mut met, mut tokens, mut answered_q) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let (mut predict_ms, mut run_us) = (vec![], vec![]);
    let (mut batches, mut questions, mut resolved, mut sql_errors, mut sql_runs) =
        (0usize, 0usize, 0usize, 0u64, 0usize);
    // The whole pool is answered at least once, however short the window.
    while batches * BATCH < POOL || secs(Instant::now()) < seconds {
        let lo = (batches * BATCH) % POOL;
        let batch = &pool[lo..lo + BATCH];
        let qs: Vec<&str> = batch.iter().map(|e| e.question.as_str()).collect();
        let req = batches as u64 + 1;
        let start = Instant::now();
        let t = secs(start);
        let preds = app.parser.predict_batch(&qs, DecodeMode::Constrained);
        let predicted = Instant::now();
        tr.record("text2sql.predict_batch", req, start, predicted);
        predict_ms.push((predicted - start).as_secs_f64() * 1e3);
        let mut last = predicted;
        let mut batch_ok = true;
        let mut first: f64 = 0.0;
        for (k, (pred, gold)) in preds.iter().zip(batch).enumerate() {
            if let Some(sql) = &pred.sql {
                let s = Instant::now();
                let res = run_sql(sql, &app.catalog);
                let e = Instant::now();
                tr.record("sql.run_sql", req, s, e);
                run_us.push((e - s).as_secs_f64() * 1e6);
                sql_runs += 1;
                if res.is_err() {
                    sql_errors += 1;
                    batch_ok = false;
                }
                resolved += 1;
            }
            let score = tr.time("text2sql.score_one", req, || {
                score_one(pred.sql.as_deref(), gold, &app.catalog)
            });
            last = Instant::now();
            if k == 0 {
                first = (last - start).as_secs_f64() * 1e3;
                first_ms.push(t, first);
            }
            match &answers[lo + k] {
                None => {
                    answers[lo + k] = Some(pred.sql.clone());
                    exec_ok[lo + k] = score.exec == 1;
                }
                Some(prev) if *prev != pred.sql => {
                    check = Err(format!(
                        "question {} translated differently on a later pass",
                        lo + k
                    ));
                }
                Some(_) => {}
            }
        }
        e2e_ms.push(t, (last - start).as_secs_f64() * 1e3);
        // The engine inside `predict_batch` runs one beam step per token of
        // the longest answer, plus the step that picks its stop token; the
        // batch's token gap is the call's time shared over those steps.
        let answer_tokens: Vec<usize> = preds
            .iter()
            .map(|p| app.parser.tokenizer().encode(&p.raw).len())
            .collect();
        let steps = answer_tokens.iter().max().map_or(1, |&n| n + 1);
        let gap = predict_ms[predict_ms.len() - 1] / steps as f64;
        for _ in 0..steps {
            itl_ms.push(t, gap);
        }
        tokens.push(t, answer_tokens.iter().sum::<usize>() as f64);
        let ok = batch_ok && first <= SLO_FIRST_MS && gap <= SLO_GAP_MS;
        met.push(t, f64::from(u8::from(ok)));
        answered_q.push(t, BATCH as f64);
        questions += BATCH;
        batches += 1;
    }
    let wall = secs(Instant::now());

    let exec = exec_ok.iter().filter(|&&x| x).count();
    let mut notes = Vec::new();
    if check.is_ok() {
        match RECORDED_EXEC.get(seed as usize).map(|&w| usize::from(w)) {
            Some(want) if want != exec => {
                check = Err(format!(
                    "exec_acc {exec}/{POOL} differs from the recorded {want}/{POOL}"
                ));
            }
            Some(_) => notes.push(format!(
                "exec_acc {exec}/{POOL} equals the value recorded for seed {seed}"
            )),
            None => notes.push(format!(
                "no exec_acc recorded for seed {seed}; measured {exec}/{POOL}"
            )),
        }
    }
    if check.is_ok() {
        for i in pick(seed, 0xC4EC, POOL, CHECKED) {
            let single = app
                .parser
                .predict(&pool[i].question, DecodeMode::Constrained)
                .sql;
            if Some(&single) != answers[i].as_ref() {
                check = Err(format!(
                    "question {i}: batched translation differs from the single-question path"
                ));
                break;
            }
        }
    }
    if check.is_ok() && sql_errors > 0 {
        check = Err(format!("{sql_errors} predicted queries failed to execute"));
    }
    let mut h = DefaultHasher::new();
    answers.hash(&mut h);

    let mut m = Metrics::default();
    m.put(
        "ttft_ms_p50",
        first_ms.quantile(seconds, 0.5),
        first_ms.len(),
    );
    m.put(
        "ttft_ms_p90",
        first_ms.quantile(seconds, 0.9),
        first_ms.len(),
    );
    m.put("itl_ms_p50", itl_ms.quantile(seconds, 0.5), itl_ms.len());
    m.put("itl_ms_p99", itl_ms.quantile(seconds, 0.99), itl_ms.len());
    m.put("e2e_ms_p50", e2e_ms.quantile(seconds, 0.5), e2e_ms.len());
    m.put("e2e_ms_p90", e2e_ms.quantile(seconds, 0.9), e2e_ms.len());
    m.put("slo_attain", met.mean(seconds), batches);
    m.put("goodput_rps", met.rate(seconds) * BATCH as f64, batches);
    m.put("decode_tok_s", tokens.rate(seconds), tokens.len());
    m.put("questions_per_s", answered_q.rate(seconds), questions);
    m.put("exec_acc", exec as f64 / POOL as f64, POOL);

    m.put(
        "text2sql.predict_batch_ms_p50",
        median(&predict_ms),
        predict_ms.len(),
    );
    m.put(
        "text2sql.sql_resolved_share",
        share(resolved as f64, questions as f64),
        questions,
    );
    m.put("sql.run_sql_us_p50", median(&run_us), run_us.len());
    m.put(
        "sql.exec_error_share",
        share(sql_errors as f64, sql_runs as f64),
        sql_runs,
    );
    let cfg = ModelConfig {
        vocab_size: app.parser.tokenizer().vocab().len(),
        ..parser_config()
    };
    m.put("transformer.kv_bytes_per_request", kv_bytes(&cfg), 1);
    if traced && check.is_ok() {
        let fill_us = replay_masks(app, &pool, &answers, &mut tr);
        m.put("text2sql.mask_fill_us_p50", median(&fill_us), fill_us.len());
        notes.push(format!(
            "replayed TrieConstraint::fill on {} predicted prefixes",
            fill_us.len()
        ));
    }

    Window {
        metrics: m,
        attempted: questions as u64,
        failed: sql_errors,
        fingerprint: h.finish(),
        check,
        wall_s: wall,
        tracer: tr,
        notes,
    }
}

/// Prints `RECORDED_EXEC` for seeds `0..64` at the current parser, for
/// pasting into this file after a change that legitimately moves it.
pub fn record_exec() {
    let app = setup();
    let counts: Vec<String> = (0..64u64)
        .map(|seed| {
            let exec = window(&app, seed, 0.0, false).metrics.0["exec_acc"].0 * POOL as f64;
            format!("{}", exec.round() as usize)
        })
        .collect();
    println!("const RECORDED_EXEC: [u16; 64] = [{}];", counts.join(", "));
}

/// Replays the grammar mask on every prefix of each predicted query:
/// one `TrieConstraint::fill` per generated position, as the engine does
/// once per beam step.
fn replay_masks(
    app: &App,
    pool: &[Example],
    answers: &[Option<Option<String>>],
    tr: &mut Tracer,
) -> Vec<f64> {
    let bpe = app.parser.tokenizer();
    let mut mask = vec![false; bpe.vocab().len()];
    let mut out = Vec::new();
    for (i, (ex, ans)) in pool.iter().zip(answers).enumerate() {
        let Some(Some(sql)) = ans else {
            continue;
        };
        let mut ids = prompt_ids(app, &ex.question);
        let constraint = TrieConstraint::new(bpe, app.parser.trie(), ids.len());
        for tok in bpe
            .encode(&sql.to_lowercase())
            .into_iter()
            .map(Some)
            .chain([None])
        {
            mask.fill(false);
            let start = Instant::now();
            constraint.fill(&ids, &mut mask);
            let end = Instant::now();
            tr.record("text2sql.mask_fill", i as u64 + 1, start, end);
            out.push((end - start).as_secs_f64() * 1e6);
            std::hint::black_box(&mask);
            match tok {
                Some(t) => ids.push(t),
                None => break,
            }
        }
    }
    out
}
