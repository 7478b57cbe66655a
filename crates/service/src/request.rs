//! The unified request API: one [`Request`] type for every query shape,
//! one [`Response`] with a typed [`Outcome`].
//!
//! A request is *what to compute* ([`Query`]) plus *how much it may cost*
//! ([`Budget`]). Budgets are expressed as relative durations and work
//! ceilings; the engine converts them to an absolute
//! [`presky_query::engine::EngineBudget`] at admission time,
//! so a request value can be built once and replayed.

use std::time::{Duration, Instant};

use presky_core::types::ObjectId;

use crate::tenant::TenantId;

use presky_query::engine::{
    ElicitOptions, ElicitationCandidate, EngineBudget, PipelineStats, SensitivityOptions,
    TargetSensitivity,
};
use presky_query::prob_skyline::{QueryOptions, SkyResult};
use presky_query::threshold::{Resolution, ThresholdAnswer, ThresholdOptions};
use presky_query::topk::TopKOptions;

/// Per-request work budget, relative to admission time.
///
/// The default adds no limit: unless its query options carry their own
/// (a sampler or exact-engine deadline, a joint cap), the request runs to
/// completion and each value is bit-identical to the per-target path
/// (`solve_one`, `threshold_one`) under the same per-object options.
/// Every limit is enforced at chunk granularity (8192 joints in the exact
/// DFS, 64-world blocks in the samplers, object boundaries for the
/// request-wide ledgers); a tripped budget never yields a wrong value —
/// the affected slots are simply absent and counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Budget {
    /// Wall-clock allowance, measured from admission.
    pub deadline: Option<Duration>,
    /// Request-wide inclusion–exclusion joint ceiling.
    pub max_joints: Option<u64>,
    /// Request-wide Monte-Carlo world ceiling.
    pub max_samples: Option<u64>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Chainable: set (or clear) the wall-clock allowance.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Chainable: set (or clear) the joint ceiling.
    pub fn with_max_joints(mut self, max_joints: Option<u64>) -> Self {
        self.max_joints = max_joints;
        self
    }

    /// Chainable: set (or clear) the sampled-world ceiling.
    pub fn with_max_samples(mut self, max_samples: Option<u64>) -> Self {
        self.max_samples = max_samples;
        self
    }

    /// Whether this budget constrains anything at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_joints.is_none() && self.max_samples.is_none()
    }

    /// Whether a request run under `self` is at least as complete as one
    /// run under `follower` — the single-flight coalescing rule.
    ///
    /// Field-wise: an unlimited field covers anything; a limited field
    /// never covers an unlimited one; two limits cover in `≥` order. A
    /// follower whose budget is covered can take the leader's response as
    /// its own (every slot the follower's solo run would have produced is
    /// present, bit-identical); one that is not covered must run solo.
    pub fn covers(&self, follower: &Budget) -> bool {
        fn field<T: PartialOrd>(leader: Option<T>, follower: Option<T>) -> bool {
            match (leader, follower) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(l), Some(f)) => l >= f,
            }
        }
        field(self.deadline, follower.deadline)
            && field(self.max_joints, follower.max_joints)
            && field(self.max_samples, follower.max_samples)
    }

    /// Pin the relative budget to an absolute engine budget at `now`.
    pub(crate) fn to_engine_budget(self, now: Instant) -> EngineBudget {
        EngineBudget::default()
            .with_deadline_at(self.deadline.map(|d| now + d))
            .with_max_joints(self.max_joints)
            .with_max_samples(self.max_samples)
    }
}

/// What to compute.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Query {
    /// One object's skyline probability.
    SkyOne {
        /// The object.
        target: ObjectId,
        /// Algorithm policy.
        opts: QueryOptions,
    },
    /// Every object's skyline probability.
    AllSky {
        /// Algorithm policy.
        opts: QueryOptions,
    },
    /// Membership of every object in the τ-skyline.
    Threshold {
        /// The probability threshold.
        tau: f64,
        /// Ladder configuration.
        opts: ThresholdOptions,
    },
    /// The k objects of largest skyline probability.
    TopK {
        /// How many objects to return.
        k: usize,
        /// Scout/refine configuration.
        opts: TopKOptions,
    },
    /// Exact per-coin partial derivatives ∂sky/∂Pr(a≺b) — one object or
    /// every object, always through the exact pipeline.
    Sensitivity {
        /// `Some` for one object's gradient, `None` for every object's.
        target: Option<ObjectId>,
        /// Gradient-pass configuration.
        opts: SensitivityOptions,
    },
    /// Preference pairs ranked by value of information: the expected
    /// skyline churn from resolving each still-uncertain comparison.
    ElicitationRank {
        /// Sweep and ranking configuration.
        opts: ElicitOptions,
    },
}

/// One unit of service work: a [`Query`] under a [`Budget`], optionally
/// on behalf of a registered tenant.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Request {
    /// What to compute.
    pub query: Query,
    /// How much it may cost.
    pub budget: Budget,
    /// Whose preferences to compute under: `None` answers from the base
    /// model; `Some` resolves the tenant's registered overlay over the
    /// pinned epoch's base model. A registered tenant with an **empty**
    /// overlay is contractually byte-identical to `None`. An unregistered
    /// tenant is refused with
    /// [`ServiceError::UnknownTenant`](crate::ServiceError::UnknownTenant).
    pub tenant: Option<TenantId>,
}

impl Request {
    /// A single-object skyline-probability request.
    pub fn sky_one(target: ObjectId, opts: QueryOptions) -> Self {
        Self { query: Query::SkyOne { target, opts }, budget: Budget::default(), tenant: None }
    }

    /// An all-objects skyline-probability request.
    pub fn all_sky(opts: QueryOptions) -> Self {
        Self { query: Query::AllSky { opts }, budget: Budget::default(), tenant: None }
    }

    /// A τ-skyline membership request.
    pub fn threshold(tau: f64, opts: ThresholdOptions) -> Self {
        Self { query: Query::Threshold { tau, opts }, budget: Budget::default(), tenant: None }
    }

    /// A top-k request.
    pub fn top_k(k: usize, opts: TopKOptions) -> Self {
        Self { query: Query::TopK { k, opts }, budget: Budget::default(), tenant: None }
    }

    /// A sensitivity (gradient) request: `Some` target for one object,
    /// `None` for every object.
    pub fn sensitivity(target: Option<ObjectId>, opts: SensitivityOptions) -> Self {
        Self { query: Query::Sensitivity { target, opts }, budget: Budget::default(), tenant: None }
    }

    /// A preference-elicitation ranking request.
    pub fn elicitation_rank(opts: ElicitOptions) -> Self {
        Self { query: Query::ElicitationRank { opts }, budget: Budget::default(), tenant: None }
    }

    /// Chainable: attach a budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Chainable: run on behalf of a registered tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }
}

/// The values a query can produce.
///
/// Batch shapes mirror
/// [`ResidentOutcome`](presky_query::engine::ResidentOutcome): one slot
/// per object in object order, `None` where the budget ran out before
/// that object was solved. Every present value is bit-identical to the
/// unbudgeted run of the same options.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// One object's probability (`None` only under a tripped budget).
    Sky(Option<SkyResult>),
    /// Per-object probabilities.
    AllSky(Vec<Option<SkyResult>>),
    /// Per-object membership verdicts.
    Threshold(Vec<Option<ThresholdAnswer>>),
    /// The final ranking, best first (at most `k` entries).
    TopK(Vec<SkyResult>),
    /// Per-object gradients (single-target requests produce one slot).
    Sensitivity(Vec<Option<TargetSensitivity>>),
    /// Preference pairs by descending value of information.
    ElicitationRank(Vec<ElicitationCandidate>),
}

impl Value {
    /// The single-object result, if this is a [`Value::Sky`].
    pub fn as_sky(&self) -> Option<&SkyResult> {
        match self {
            Value::Sky(r) => r.as_ref(),
            _ => None,
        }
    }

    /// The per-object slots, if this is a [`Value::AllSky`].
    pub fn as_all_sky(&self) -> Option<&[Option<SkyResult>]> {
        match self {
            Value::AllSky(v) => Some(v),
            _ => None,
        }
    }

    /// The per-object verdicts, if this is a [`Value::Threshold`].
    pub fn as_threshold(&self) -> Option<&[Option<ThresholdAnswer>]> {
        match self {
            Value::Threshold(v) => Some(v),
            _ => None,
        }
    }

    /// The ranking, if this is a [`Value::TopK`].
    pub fn as_top_k(&self) -> Option<&[SkyResult]> {
        match self {
            Value::TopK(v) => Some(v),
            _ => None,
        }
    }

    /// The per-object gradients, if this is a [`Value::Sensitivity`].
    pub fn as_sensitivity(&self) -> Option<&[Option<TargetSensitivity>]> {
        match self {
            Value::Sensitivity(v) => Some(v),
            _ => None,
        }
    }

    /// The ranked pairs, if this is a [`Value::ElicitationRank`].
    pub fn as_elicitation_rank(&self) -> Option<&[ElicitationCandidate]> {
        match self {
            Value::ElicitationRank(v) => Some(v),
            _ => None,
        }
    }

    /// Whether every present value was produced exactly (no estimate).
    pub(crate) fn all_exact(&self) -> bool {
        match self {
            Value::Sky(r) => r.is_none_or(|r| r.exact),
            Value::AllSky(v) => v.iter().flatten().all(|r| r.exact),
            Value::TopK(v) => v.iter().all(|r| r.exact),
            Value::Threshold(v) => v
                .iter()
                .flatten()
                .all(|a| matches!(a.resolution, Resolution::Bounds(_) | Resolution::Exact(_))),
            // Gradients only exist through the exact pipeline; the VoI
            // ranking is a deterministic fold over those exact gradients.
            Value::Sensitivity(_) | Value::ElicitationRank(_) => true,
        }
    }
}

/// How a request concluded.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Outcome {
    /// Every value is exact (certified bounds count as exact decisions).
    Exact(Value),
    /// At least one value is a Monte-Carlo estimate (or a sequential-test
    /// decision, which carries the test's error probability).
    Estimate(Value),
    /// The budget (deadline or work ledger) tripped before every slot was
    /// solved. The partial value contains everything completed in time —
    /// each present slot is bit-identical to the unbudgeted run; nothing
    /// is fabricated.
    DeadlineExceeded {
        /// What completed within budget.
        partial: Value,
        /// Slots (or top-k refinements) the budget truncated.
        truncated: u64,
    },
}

impl Outcome {
    /// The carried value, whatever the conclusion.
    pub fn value(&self) -> &Value {
        match self {
            Outcome::Exact(v) | Outcome::Estimate(v) => v,
            Outcome::DeadlineExceeded { partial, .. } => partial,
        }
    }

    /// Whether the request finished within budget.
    pub fn complete(&self) -> bool {
        !matches!(self, Outcome::DeadlineExceeded { .. })
    }

    pub(crate) fn classify(value: Value, truncated: u64) -> Self {
        if truncated > 0 {
            Outcome::DeadlineExceeded { partial: value, truncated }
        } else if value.all_exact() {
            Outcome::Exact(value)
        } else {
            Outcome::Estimate(value)
        }
    }
}

/// The answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Response {
    /// The typed conclusion with its value.
    pub outcome: Outcome,
    /// Pipeline counters of this request alone.
    pub stats: PipelineStats,
    /// Wall-clock time from admission to answer.
    pub elapsed: Duration,
    /// The dataset epoch this request was pinned to at admission; every
    /// value in `outcome` was computed against exactly this version of
    /// the table, indexes and preferences.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_pins_relative_deadline_at_admission() {
        let now = Instant::now();
        let b = Budget::default()
            .with_deadline(Some(Duration::from_millis(5)))
            .with_max_joints(Some(7));
        assert!(!b.is_unlimited());
        let eb = b.to_engine_budget(now);
        assert_eq!(eb.deadline_at, Some(now + Duration::from_millis(5)));
        assert_eq!(eb.max_joints, Some(7));
        assert_eq!(eb.max_samples, None);
        assert!(Budget::unlimited().to_engine_budget(now).is_unlimited());
    }

    #[test]
    fn covers_is_field_wise_at_least_as_generous() {
        let unlimited = Budget::unlimited();
        let tight = Budget::default()
            .with_deadline(Some(Duration::from_millis(5)))
            .with_max_joints(Some(100));
        let loose = Budget::default()
            .with_deadline(Some(Duration::from_millis(50)))
            .with_max_joints(Some(1000));
        assert!(unlimited.covers(&tight));
        assert!(unlimited.covers(&unlimited));
        assert!(loose.covers(&tight));
        assert!(!tight.covers(&loose));
        assert!(!tight.covers(&unlimited), "a limit never covers unlimited");
        // An orthogonal limit breaks coverage even when the others align.
        let sampled = loose.with_max_samples(Some(10));
        assert!(!sampled.covers(&loose));
        assert!(loose.covers(&sampled.with_max_samples(None)));
    }

    #[test]
    fn outcome_classification() {
        let exact = SkyResult { object: ObjectId(0), sky: 0.5, exact: true };
        let est = SkyResult { object: ObjectId(1), sky: 0.25, exact: false };
        assert!(matches!(
            Outcome::classify(Value::AllSky(vec![Some(exact)]), 0),
            Outcome::Exact(_)
        ));
        assert!(matches!(
            Outcome::classify(Value::AllSky(vec![Some(exact), Some(est)]), 0),
            Outcome::Estimate(_)
        ));
        let o = Outcome::classify(Value::AllSky(vec![Some(exact), None]), 1);
        assert!(!o.complete());
        assert_eq!(o.value().as_all_sky().unwrap().len(), 2);
    }
}
