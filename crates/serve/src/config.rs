//! The `agebo serve` configuration file, in the workspace's own JSON
//! codec (the vendored `serde_json` stub cannot serialize).
//!
//! ```json
//! {
//!   "slots": 4,
//!   "cache_capacity": 4096,
//!   "tenants": [
//!     { "name": "acme", "weight": 2.0, "max_in_flight": 2,
//!       "max_pending": 64, "max_sessions": 4,
//!       "max_evals": 500, "deadline_secs": 120.0 }
//!   ],
//!   "sessions": [
//!     { "name": "s0", "tenant": "acme", "dataset": "covertype",
//!       "profile": "test", "variant": "agebo", "seed": 7,
//!       "wall_time": 2000.0, "workers": 4,
//!       "failure_rate": 0.2, "chaos_profile": "heavy" }
//!   ]
//! }
//! ```
//!
//! Every tenant field but `name` is optional (defaults from
//! [`TenantBudget::default`]); every session field but `name`, `tenant`,
//! `dataset`, `profile`, `variant` and `seed` is optional.

use crate::session::{SessionSpec, TenantBudget};
use agebo_core::{FaultPlan, SearchConfig, Variant};
use agebo_tabular::{DatasetKind, SizeProfile};
use agebo_telemetry::Json;

/// A tenant declaration from the config file.
#[derive(Debug, Clone)]
pub struct TenantDecl {
    /// Tenant name.
    pub name: String,
    /// Its resolved budget.
    pub budget: TenantBudget,
}

/// A session declaration from the config file.
#[derive(Debug, Clone)]
pub struct SessionDecl {
    /// Session name (also the output file stem).
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Resolved data set.
    pub dataset: DatasetKind,
    /// Resolved size profile.
    pub profile: SizeProfile,
    /// Resolved search configuration.
    pub cfg: SearchConfig,
}

impl SessionDecl {
    /// The serving-layer spec for this declaration (telemetry is chosen
    /// by the caller).
    pub fn to_spec(&self) -> SessionSpec {
        SessionSpec::new(
            self.name.clone(),
            self.tenant.clone(),
            self.dataset,
            self.profile,
            self.cfg.clone(),
        )
    }
}

/// A parsed `agebo serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shared compute slots.
    pub slots: usize,
    /// Shared memo-cache capacity in entries.
    pub cache_capacity: usize,
    /// Declared tenants (sessions may also name undeclared tenants,
    /// which get default budgets).
    pub tenants: Vec<TenantDecl>,
    /// The sessions to run, in declaration order.
    pub sessions: Vec<SessionDecl>,
}

fn parse_dataset(s: &str) -> Result<DatasetKind, String> {
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == s)
        .ok_or_else(|| format!("unknown dataset {s}"))
}

fn parse_profile(s: &str) -> Result<SizeProfile, String> {
    match s {
        "test" => Ok(SizeProfile::Test),
        "bench" => Ok(SizeProfile::Bench),
        "large" => Ok(SizeProfile::Large),
        _ => Err(format!("unknown profile {s} (test|bench|large)")),
    }
}

fn parse_variant(s: &str) -> Result<Variant, String> {
    match s {
        "agebo" => Ok(Variant::agebo()),
        "agebo-lr" => Ok(Variant::agebo_lr(8)),
        "agebo-lr-bs" => Ok(Variant::agebo_lr_bs(8)),
        _ => match s.strip_prefix("age-").and_then(|n| n.parse::<usize>().ok()) {
            Some(n) if [1, 2, 4, 8].contains(&n) => Ok(Variant::age(n)),
            _ => Err(format!(
                "unknown variant {s} (agebo|age-1|age-2|age-4|age-8|agebo-lr|agebo-lr-bs)"
            )),
        },
    }
}

fn parse_chaos(s: &str) -> Result<FaultPlan, String> {
    match s {
        "none" => Ok(FaultPlan::none()),
        "mild" => Ok(FaultPlan::mild()),
        "heavy" => Ok(FaultPlan::heavy()),
        _ => Err(format!("unknown chaos profile {s} (none|mild|heavy)")),
    }
}

fn req_str<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: missing string field {key}"))
}

fn opt_f64(obj: &Json, key: &str, what: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{what}: field {key} must be a number")),
    }
}

fn opt_usize(obj: &Json, key: &str, what: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("{what}: field {key} must be a non-negative integer")),
    }
}

fn opt_u64(obj: &Json, key: &str, what: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{what}: field {key} must be a non-negative integer")),
    }
}

fn parse_tenant(t: &Json) -> Result<TenantDecl, String> {
    let name = req_str(t, "name", "tenant")?.to_string();
    let what = format!("tenant {name}");
    let mut budget = TenantBudget::default();
    if let Some(w) = opt_f64(t, "weight", &what)? {
        if w <= 0.0 {
            return Err(format!("{what}: weight must be > 0"));
        }
        budget.weight = w;
    }
    if let Some(v) = opt_usize(t, "max_in_flight", &what)? {
        if v == 0 {
            return Err(format!("{what}: max_in_flight must be ≥ 1"));
        }
        budget.max_in_flight = v;
    }
    if let Some(v) = opt_usize(t, "max_pending", &what)? {
        if v == 0 {
            return Err(format!("{what}: max_pending must be ≥ 1"));
        }
        budget.max_pending = v;
    }
    if let Some(v) = opt_usize(t, "max_sessions", &what)? {
        budget.max_sessions = v;
    }
    budget.max_evals = opt_u64(t, "max_evals", &what)?;
    budget.deadline_secs = opt_f64(t, "deadline_secs", &what)?;
    Ok(TenantDecl { name, budget })
}

fn parse_session(s: &Json) -> Result<SessionDecl, String> {
    let name = req_str(s, "name", "session")?.to_string();
    let what = format!("session {name}");
    let tenant = req_str(s, "tenant", &what)?.to_string();
    let dataset = parse_dataset(req_str(s, "dataset", &what)?)?;
    let profile = parse_profile(req_str(s, "profile", &what)?)?;
    let variant = parse_variant(req_str(s, "variant", &what)?)?;
    let seed = s
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing integer field seed"))?;

    let mut cfg = match profile {
        SizeProfile::Test => SearchConfig::test(variant),
        SizeProfile::Bench => SearchConfig::bench(variant),
        SizeProfile::Large => SearchConfig::paper(variant),
    }
    .with_seed(seed);
    if let Some(w) = opt_f64(s, "wall_time", &what)? {
        cfg.wall_time = w;
    }
    if let Some(w) = opt_usize(s, "workers", &what)? {
        cfg.workers = w;
    }
    if let Some(r) = opt_f64(s, "failure_rate", &what)? {
        cfg.failure_rate = r;
    }
    if let Some(c) = s.get("chaos_profile") {
        let c = c.as_str().ok_or_else(|| format!("{what}: chaos_profile must be a string"))?;
        cfg = cfg.with_chaos(parse_chaos(c)?);
    }
    if let Some(every) = opt_usize(s, "checkpoint_every", &what)? {
        cfg.checkpoint_every = every;
    }
    if let Some(window) = opt_usize(s, "surrogate_window", &what)? {
        cfg = cfg.with_surrogate_window(window);
    }
    cfg.validate().map_err(|e| format!("{what}: {e}"))?;
    Ok(SessionDecl { name, tenant, dataset, profile, cfg })
}

impl ServeConfig {
    /// Parses a config file's contents.
    pub fn parse(text: &str) -> Result<ServeConfig, String> {
        let root = Json::parse(text).map_err(|e| format!("config is not valid JSON: {e:?}"))?;
        let slots = opt_usize(&root, "slots", "config")?.unwrap_or(4);
        if slots == 0 {
            return Err("config: slots must be ≥ 1".to_string());
        }
        let cache_capacity = opt_usize(&root, "cache_capacity", "config")?.unwrap_or(4096);
        let tenants = match root.get("tenants") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("config: tenants must be an array")?
                .iter()
                .map(parse_tenant)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let sessions = root
            .get("sessions")
            .and_then(|v| v.as_arr())
            .ok_or("config: missing sessions array")?
            .iter()
            .map(parse_session)
            .collect::<Result<Vec<_>, _>>()?;
        if sessions.is_empty() {
            return Err("config: sessions array is empty".to_string());
        }
        let mut seen = std::collections::HashSet::new();
        for s in &sessions {
            if !seen.insert(&s.name) {
                return Err(format!("config: duplicate session name {}", s.name));
            }
        }
        Ok(ServeConfig { slots, cache_capacity, tenants, sessions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "slots": 2,
      "cache_capacity": 128,
      "tenants": [
        {"name": "a", "weight": 2.0, "max_in_flight": 2, "max_evals": 50},
        {"name": "b", "deadline_secs": 30.0}
      ],
      "sessions": [
        {"name": "s0", "tenant": "a", "dataset": "covertype", "profile": "test",
         "variant": "agebo", "seed": 7, "wall_time": 2000.0, "surrogate_window": 512},
        {"name": "s1", "tenant": "b", "dataset": "airlines", "profile": "test",
         "variant": "age-4", "seed": 8, "failure_rate": 0.2, "chaos_profile": "heavy"}
      ]
    }"#;

    #[test]
    fn parses_a_full_config() {
        let cfg = ServeConfig::parse(GOOD).unwrap();
        assert_eq!(cfg.slots, 2);
        assert_eq!(cfg.cache_capacity, 128);
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].budget.weight, 2.0);
        assert_eq!(cfg.tenants[0].budget.max_in_flight, 2);
        assert_eq!(cfg.tenants[0].budget.max_evals, Some(50));
        assert_eq!(cfg.tenants[1].budget.deadline_secs, Some(30.0));
        assert_eq!(cfg.sessions.len(), 2);
        let s0 = &cfg.sessions[0];
        assert_eq!(s0.cfg.seed, 7);
        assert_eq!(s0.cfg.wall_time, 2000.0);
        assert_eq!(s0.dataset.name(), "covertype");
        assert_eq!(s0.cfg.surrogate_window, 512);
        let s1 = &cfg.sessions[1];
        assert_eq!(s1.cfg.failure_rate, 0.2);
        assert_eq!(s1.cfg.variant.label(), "AgE-4");
        // Omitted window means exact (legacy) refits.
        assert_eq!(s1.cfg.surrogate_window, 0);
    }

    #[test]
    fn rejects_bad_configs() {
        for (text, needle) in [
            ("{", "not valid JSON"),
            (r#"{"sessions": []}"#, "empty"),
            (r#"{"slots": 0, "sessions": [{}]}"#, "slots"),
            (
                r#"{"sessions": [{"name": "x", "tenant": "t", "dataset": "nope",
                   "profile": "test", "variant": "agebo", "seed": 1}]}"#,
                "unknown dataset",
            ),
            (
                r#"{"sessions": [{"name": "x", "tenant": "t", "dataset": "covertype",
                   "profile": "test", "variant": "agebo", "seed": 1, "failure_rate": 1.5}]}"#,
                "failure_rate",
            ),
            (
                r#"{"sessions": [{"name": "x", "tenant": "t", "dataset": "covertype",
                   "profile": "test", "variant": "agebo", "seed": 1, "wall_time": -1.0}]}"#,
                "wall_time",
            ),
            (
                r#"{"sessions": [{"name": "x", "tenant": "t", "dataset": "covertype",
                   "profile": "test", "variant": "agebo", "seed": 1, "workers": 0}]}"#,
                "workers",
            ),
            (
                r#"{"sessions": [
                    {"name": "x", "tenant": "t", "dataset": "covertype",
                     "profile": "test", "variant": "agebo", "seed": 1},
                    {"name": "x", "tenant": "t", "dataset": "covertype",
                     "profile": "test", "variant": "agebo", "seed": 2}]}"#,
                "duplicate session name",
            ),
        ] {
            let err = ServeConfig::parse(text).unwrap_err();
            assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
        }
    }
}
