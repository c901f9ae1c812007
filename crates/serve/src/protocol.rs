//! The NDJSON request/response protocol of `dnnip-serve`.
//!
//! One request per line, one response per line, always in valid JSON. A
//! request names an operation (`op`), an optional correlation `id` (echoed
//! verbatim on the response) and, for `generate`, the full declarative test
//! generation spec the [`dnnip_core::workspace::TestGenRequest`] API takes —
//! model by registered name, strategy, budget, seed, criterion spec string,
//! candidate pool and an optional per-request deadline.
//!
//! ```text
//! → {"id":"r1","op":"generate","model":"tiny-relu","strategy":"training-set-selection",
//!    "budget":4,"pool":{"synthetic":16,"seed":3},"deadline_ms":5000}
//! ← {"id":"r1","ok":true,"model":"tiny-relu","criterion":"param-gradient",
//!    "num_tests":4,"final_coverage":0.81,...}
//! ```
//!
//! Every failure — malformed JSON, unknown model, deadline exceeded — comes
//! back as a **structured error response** (`"ok":false` plus an `error`
//! object with a machine-readable `kind`), never as a dropped line or a hung
//! connection.

use dnnip_core::coverage::{CoverageConfig, EpsilonPolicy};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_nn::layers::Activation;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::Tensor;

use crate::json::Json;
use crate::{MAX_GRADGEN_STEPS, MAX_POOL_ELEMENTS};

/// Names of the models every service instance registers at startup, in
/// presentation order. The mix spans activations (ReLU/Tanh), widths, one
/// convolutional chain and one residual graph, so mixed-traffic load tests
/// exercise genuinely different engines. Every model serves every criterion
/// and strategy.
pub const BUILTIN_MODELS: &[&str] = &[
    "tiny-relu",
    "tiny-tanh",
    "mlp-wide",
    "mnist-scaled",
    "residual",
];

/// The builtin models with Add or Concat nodes, under the name older callers
/// use (a subset of [`BUILTIN_MODELS`]).
#[doc(hidden)]
pub const BUILTIN_GRAPH_MODELS: &[&str] = &["residual"];

/// [`build_model`] for the names in [`BUILTIN_GRAPH_MODELS`], under the name
/// older callers use.
#[doc(hidden)]
pub fn build_graph_model(name: &str) -> Option<(Network, CoverageConfig)> {
    BUILTIN_GRAPH_MODELS
        .contains(&name)
        .then(|| build_model(name))
        .flatten()
}

/// Construct a builtin model and its base coverage configuration by name.
pub fn build_model(name: &str) -> Option<(Network, CoverageConfig)> {
    let network = match name {
        "tiny-relu" => zoo::tiny_mlp(6, 12, 4, Activation::Relu, 11),
        "tiny-tanh" => zoo::tiny_mlp(6, 12, 4, Activation::Tanh, 12),
        "mlp-wide" => zoo::tiny_mlp(10, 24, 6, Activation::Relu, 13),
        "mnist-scaled" => zoo::mnist_model_scaled(14),
        "residual" => zoo::residual_classifier(15),
        _ => return None,
    }
    .expect("builtin geometries are valid");
    let mut config = CoverageConfig::default();
    if name == "tiny-tanh" {
        // Tanh saturates: a relative epsilon keeps its gradient-magnitude
        // comparisons meaningful where an exact one would be vacuous.
        config.epsilon = EpsilonPolicy::RelativeToMax(1e-2);
    }
    Some((network, config))
}

/// Where a generate request's candidate pool comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolSpec {
    /// `{"synthetic": <size>, "seed": <seed>}` — a deterministic pool of
    /// `size` samples in the model's input shape, derived only from the seed
    /// (so two requests with the same spec share cache entries).
    Synthetic {
        /// Number of candidate samples.
        size: usize,
        /// Pool derivation seed.
        seed: u64,
    },
    /// `{"inline": [[...], ...]}` — explicit flat sample vectors, each
    /// reshaped to the model's input shape.
    Inline(Vec<Vec<f32>>),
}

impl Default for PoolSpec {
    fn default() -> Self {
        PoolSpec::Synthetic { size: 16, seed: 0 }
    }
}

impl PoolSpec {
    /// Materialize the pool in `shape` (the model's input shape).
    ///
    /// # Errors
    ///
    /// Returns a message when the pool would hold more than
    /// [`MAX_POOL_ELEMENTS`] elements, or when an inline sample's length does
    /// not match the shape's element count.
    pub fn materialize(&self, shape: &[usize]) -> Result<Vec<Tensor>, String> {
        let elements: usize = shape.iter().product();
        let size = match self {
            PoolSpec::Synthetic { size, .. } => *size,
            PoolSpec::Inline(rows) => rows.len(),
        };
        if size.saturating_mul(elements) > MAX_POOL_ELEMENTS {
            return Err(format!(
                "pool of {size} samples × {elements} elements exceeds the limit of \
                 {MAX_POOL_ELEMENTS} elements"
            ));
        }
        match self {
            PoolSpec::Synthetic { size, seed } => Ok((0..*size)
                .map(|i| {
                    // A cheap splitmix64-style stream keyed by (seed, sample,
                    // element): deterministic, shape-independent, no state.
                    Tensor::from_fn(shape, |j| {
                        let mut x = seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((i as u64) << 32)
                            .wrapping_add(j as u64);
                        x ^= x >> 30;
                        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        x ^= x >> 27;
                        ((x >> 11) as f32 / (1u64 << 53) as f32) * 2.0
                    })
                })
                .collect()),
            PoolSpec::Inline(rows) => rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    if row.len() != elements {
                        return Err(format!(
                            "inline sample {i} has {} elements, model input needs {elements}",
                            row.len()
                        ));
                    }
                    Tensor::from_vec(row.clone(), shape)
                        .map_err(|e| format!("inline sample {i}: {e}"))
                })
                .collect(),
        }
    }
}

/// A fully parsed `generate` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateSpec {
    /// Registered model name (one of [`BUILTIN_MODELS`] for the binary).
    pub model: String,
    /// Generation strategy.
    pub strategy: GenerationMethod,
    /// Test budget.
    pub budget: usize,
    /// Seed for randomness-drawing strategies.
    pub seed: u64,
    /// Optional criterion spec string (`DNNIP_CRITERION` syntax); absent
    /// means the model's default parameter-gradient criterion.
    pub criterion: Option<String>,
    /// Gradient-generator step count override (`None` = default).
    pub gradgen_steps: Option<usize>,
    /// Candidate pool.
    pub pool: PoolSpec,
    /// Per-request deadline in milliseconds (`None` = the engine default).
    pub deadline_ms: Option<u64>,
}

impl GenerateSpec {
    /// Check the work this spec asks for against the per-request caps: a
    /// suite of `budget` samples of `input_elements` each may hold at most
    /// [`MAX_POOL_ELEMENTS`] elements, and `gradgen_steps` may be at most
    /// [`MAX_GRADGEN_STEPS`].
    ///
    /// # Errors
    ///
    /// Returns the message of the `bad_request` that rejects the spec.
    pub(crate) fn check_work(&self, input_elements: usize) -> Result<(), String> {
        if self.budget.saturating_mul(input_elements) > MAX_POOL_ELEMENTS {
            return Err(format!(
                "budget of {} samples × {input_elements} elements exceeds the limit of \
                 {MAX_POOL_ELEMENTS} elements",
                self.budget
            ));
        }
        match self.gradgen_steps {
            Some(steps) if steps > MAX_GRADGEN_STEPS => Err(format!(
                "gradgen_steps of {steps} exceeds the limit of {MAX_GRADGEN_STEPS}"
            )),
            _ => Ok(()),
        }
    }

    /// The gradient-generator configuration this spec implies.
    pub fn gradgen(&self) -> GradGenConfig {
        let mut config = GradGenConfig::default();
        if let Some(steps) = self.gradgen_steps {
            config.steps = steps;
        }
        config
    }
}

/// The operation a request names.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOp {
    /// Run test generation (the default `op` when the field is absent).
    Generate(Box<GenerateSpec>),
    /// List the registered models.
    Models,
    /// Report cache/disk counters.
    Stats,
    /// Vacuum the persistent tier.
    Vacuum,
    /// Drain the queue and exit cleanly.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Correlation id echoed on the response (empty when absent).
    pub id: String,
    /// The operation.
    pub op: RequestOp,
}

/// A request that could not be parsed; carries whatever id was recoverable.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request's `id`, when the line was at least valid JSON.
    pub id: String,
    /// What was wrong.
    pub message: String,
}

fn bad(id: &str, message: impl Into<String>) -> RequestError {
    RequestError {
        id: id.to_string(),
        message: message.into(),
    }
}

/// Parse one NDJSON request line.
///
/// # Errors
///
/// Returns a [`RequestError`] (with the request id when recoverable) for
/// malformed JSON, unknown operations/strategies and out-of-range fields.
pub fn parse_request(line: &str) -> Result<ServeRequest, RequestError> {
    let value = Json::parse(line).map_err(|e| bad("", format!("malformed JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(bad("", "request must be a JSON object"));
    }
    let id = value
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let op = value.get("op").and_then(Json::as_str).unwrap_or("generate");
    let op = match op {
        "models" => RequestOp::Models,
        "stats" => RequestOp::Stats,
        "vacuum" => RequestOp::Vacuum,
        "shutdown" => RequestOp::Shutdown,
        "generate" => RequestOp::Generate(Box::new(parse_generate(&id, &value)?)),
        other => return Err(bad(&id, format!("unknown op {other:?}"))),
    };
    Ok(ServeRequest { id, op })
}

fn parse_generate(id: &str, value: &Json) -> Result<GenerateSpec, RequestError> {
    let model = value
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(id, "generate requires a \"model\" name"))?
        .to_string();
    let strategy_name = value
        .get("strategy")
        .and_then(Json::as_str)
        .unwrap_or("training-set-selection");
    let strategy = GenerationMethod::all()
        .into_iter()
        .find(|m| m.name() == strategy_name)
        .ok_or_else(|| bad(id, format!("unknown strategy {strategy_name:?}")))?;
    let budget = match value.get("budget") {
        None => 4,
        Some(v) => v
            .as_u64()
            .filter(|&b| b >= 1)
            .ok_or_else(|| bad(id, "\"budget\" must be a positive integer"))?
            as usize,
    };
    let seed = match value.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(id, "\"seed\" must be a non-negative integer"))?,
    };
    let criterion = value
        .get("criterion")
        .and_then(Json::as_str)
        .map(str::to_string);
    let gradgen_steps = match value.get("gradgen_steps") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&s| s >= 1)
                .ok_or_else(|| bad(id, "\"gradgen_steps\" must be a positive integer"))?
                as usize,
        ),
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad(id, "\"deadline_ms\" must be a non-negative integer"))?,
        ),
    };
    let pool = match value.get("pool") {
        None => PoolSpec::default(),
        Some(spec) => parse_pool(id, spec)?,
    };
    Ok(GenerateSpec {
        model,
        strategy,
        budget,
        seed,
        criterion,
        gradgen_steps,
        pool,
        deadline_ms,
    })
}

fn parse_pool(id: &str, spec: &Json) -> Result<PoolSpec, RequestError> {
    if let Some(rows) = spec.get("inline").and_then(Json::as_array) {
        let rows: Result<Vec<Vec<f32>>, RequestError> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.as_array()
                    .ok_or_else(|| bad(id, format!("inline sample {i} is not an array")))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .map(|f| f as f32)
                            .ok_or_else(|| bad(id, format!("inline sample {i} has a non-number")))
                    })
                    .collect()
            })
            .collect();
        return Ok(PoolSpec::Inline(rows?));
    }
    if let Some(size) = spec.get("synthetic") {
        let size = size
            .as_u64()
            .filter(|&s| s >= 1)
            .ok_or_else(|| bad(id, "\"synthetic\" pool size must be a positive integer"))?
            as usize;
        let seed = match spec.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(id, "pool \"seed\" must be a non-negative integer"))?,
        };
        return Ok(PoolSpec::Synthetic { size, seed });
    }
    Err(bad(
        id,
        "pool must carry \"synthetic\" (with optional \"seed\") or \"inline\"",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_models_all_construct() {
        for &name in BUILTIN_MODELS {
            let (network, _) = build_model(name).unwrap();
            assert!(network.num_parameters() > 0, "{name}");
        }
        assert!(build_model("no-such-model").is_none());
    }

    #[test]
    fn full_generate_request_parses() {
        let line = r#"{"id":"r-7","op":"generate","model":"tiny-relu","strategy":"combined",
            "budget":6,"seed":9,"criterion":"neuron-activation:0.25","gradgen_steps":3,
            "pool":{"synthetic":20,"seed":4},"deadline_ms":2500}"#
            .replace('\n', " ");
        let request = parse_request(&line).unwrap();
        assert_eq!(request.id, "r-7");
        let RequestOp::Generate(spec) = request.op else {
            panic!("not a generate op");
        };
        assert_eq!(spec.model, "tiny-relu");
        assert_eq!(spec.strategy, GenerationMethod::Combined);
        assert_eq!(spec.budget, 6);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.criterion.as_deref(), Some("neuron-activation:0.25"));
        assert_eq!(spec.gradgen().steps, 3);
        assert_eq!(spec.pool, PoolSpec::Synthetic { size: 20, seed: 4 });
        assert_eq!(spec.deadline_ms, Some(2500));
    }

    #[test]
    fn defaults_fill_absent_fields() {
        let request = parse_request(r#"{"model":"tiny-tanh"}"#).unwrap();
        assert_eq!(request.id, "");
        let RequestOp::Generate(spec) = request.op else {
            panic!("default op must be generate");
        };
        assert_eq!(spec.strategy, GenerationMethod::TrainingSetSelection);
        assert_eq!(spec.budget, 4);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.criterion, None);
        assert_eq!(spec.pool, PoolSpec::default());
        assert_eq!(spec.deadline_ms, None);
    }

    #[test]
    fn control_ops_parse() {
        for (op, expected) in [
            ("models", RequestOp::Models),
            ("stats", RequestOp::Stats),
            ("vacuum", RequestOp::Vacuum),
            ("shutdown", RequestOp::Shutdown),
        ] {
            let request = parse_request(&format!(r#"{{"id":"x","op":"{op}"}}"#)).unwrap();
            assert_eq!(request.op, expected);
        }
    }

    #[test]
    fn malformed_requests_report_structured_errors() {
        // Broken JSON: no id recoverable.
        let e = parse_request("{nope").unwrap_err();
        assert_eq!(e.id, "");
        assert!(e.message.contains("malformed JSON"));
        // Valid JSON, bad content: the id comes back.
        for (line, needle) in [
            (r#"{"id":"a","op":"destroy"}"#, "unknown op"),
            (r#"{"id":"b"}"#, "\"model\""),
            (r#"{"id":"c","model":"m","strategy":"psychic"}"#, "strategy"),
            (r#"{"id":"d","model":"m","budget":0}"#, "budget"),
            (r#"{"id":"e","model":"m","budget":2.5}"#, "budget"),
            (r#"{"id":"f","model":"m","seed":-1}"#, "seed"),
            (r#"{"id":"g","model":"m","pool":{}}"#, "pool"),
            (
                r#"{"id":"h","model":"m","deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(!e.id.is_empty(), "{line}: id lost");
            assert!(e.message.contains(needle), "{line}: got {:?}", e.message);
        }
        assert!(parse_request("[1,2,3]").is_err(), "non-object accepted");
    }

    #[test]
    fn synthetic_pools_are_deterministic_and_shaped() {
        let spec = PoolSpec::Synthetic { size: 5, seed: 42 };
        let a = spec.materialize(&[2, 3]).unwrap();
        let b = spec.materialize(&[2, 3]).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a, b, "same spec must give identical pools");
        assert_eq!(a[0].shape(), &[2, 3]);
        // Different seeds give different pools.
        let c = PoolSpec::Synthetic { size: 5, seed: 43 }
            .materialize(&[2, 3])
            .unwrap();
        assert_ne!(a, c);
        // Values live in a bounded range (inputs, not raw hashes).
        for t in &a {
            for &v in t.data() {
                assert!((0.0..=2.0).contains(&v));
            }
        }
    }

    #[test]
    fn pools_over_the_element_limit_are_rejected_before_allocating() {
        // 16 elements per sample: the limit admits exactly MAX / 16 samples.
        let shape = [4, 4];
        let at_limit = MAX_POOL_ELEMENTS / 16;
        let over = PoolSpec::Synthetic {
            size: at_limit + 1,
            seed: 1,
        };
        assert!(over.materialize(&shape).unwrap_err().contains("exceeds"));
        let huge = PoolSpec::Synthetic {
            size: usize::MAX,
            seed: 1,
        };
        assert!(
            huge.materialize(&shape).is_err(),
            "no overflow past the cap"
        );
        assert!(PoolSpec::Synthetic { size: 3, seed: 1 }
            .materialize(&shape)
            .is_ok());
    }

    #[test]
    fn work_over_the_caps_is_rejected() {
        let generate = |line: &str| match parse_request(line).unwrap().op {
            RequestOp::Generate(spec) => spec,
            op => panic!("not a generate op: {op:?}"),
        };
        // 16 elements per sample: the cap admits a budget of exactly MAX / 16.
        let at_limit = MAX_POOL_ELEMENTS / 16;
        let line = format!(r#"{{"id":"b","model":"m","budget":{at_limit}}}"#);
        assert!(generate(&line).check_work(16).is_ok());
        let line = format!(r#"{{"id":"b","model":"m","budget":{}}}"#, at_limit + 1);
        assert!(generate(&line)
            .check_work(16)
            .unwrap_err()
            .contains("budget"));
        let line = r#"{"id":"b","model":"m","budget":1000000000000}"#;
        assert!(
            generate(line).check_work(usize::MAX).is_err(),
            "no overflow past the cap"
        );
        let line = format!(r#"{{"id":"s","model":"m","gradgen_steps":{MAX_GRADGEN_STEPS}}}"#);
        assert!(generate(&line).check_work(16).is_ok());
        let line = format!(
            r#"{{"id":"s","model":"m","gradgen_steps":{}}}"#,
            MAX_GRADGEN_STEPS + 1
        );
        assert!(generate(&line)
            .check_work(16)
            .unwrap_err()
            .contains("gradgen_steps"));
    }

    #[test]
    fn inline_pools_validate_shape() {
        let spec = PoolSpec::Inline(vec![vec![0.1, 0.2, 0.3, 0.4]]);
        let ok = spec.materialize(&[4]).unwrap();
        assert_eq!(ok[0].data(), &[0.1, 0.2, 0.3, 0.4]);
        assert!(spec.materialize(&[5]).is_err(), "length mismatch accepted");
    }
}
