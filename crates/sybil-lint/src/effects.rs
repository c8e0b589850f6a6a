//! Root designation for the effect rows of the rule table (S109, S110):
//! the `[effects.roots]` table of `lint.toml`.
//!
//! A root list names the functions a contract starts from — the
//! clockless replay/serve/simulate cores; the epoch-barrier path and the
//! production fault-plane surface, which must not reach IO. The rows
//! themselves (which site kinds each forbids, the wording) live in
//! [`crate::rules::RULES`]; the search from a site back to its nearest
//! root is the shared reporter's.

/// The `[effects.roots]` table. Patterns match fully qualified function
/// names ([`WorkspaceModel::fq_name`](crate::WorkspaceModel::fq_name))
/// either exactly or by prefix when the pattern ends in `*`
/// (`sybil-serve::shard::*`). An empty list disables its rule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectConfig {
    /// S109 roots: functions that must not reach wall-clock / env /
    /// thread-id reads.
    pub clockless_roots: Vec<String>,
    /// S110 roots: the epoch-barrier critical path and the production
    /// fault-plane surface (the `FaultPlane` trait's no-op defaults and
    /// `NoFaults`), which must not reach filesystem/stdio IO.
    pub io_free_roots: Vec<String>,
}

impl EffectConfig {
    /// Does `fq` match any pattern in `pats` (exact, or `prefix*`)?
    /// Shared with the `[hotpaths.roots]` patterns.
    pub(crate) fn matches(pats: &[String], fq: &str) -> bool {
        pats.iter().any(|p| match p.strip_suffix('*') {
            Some(prefix) => fq.starts_with(prefix),
            None => p == fq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_pattern_matching() {
        let pats = vec!["a::b".to_string(), "x::y::*".to_string()];
        assert!(EffectConfig::matches(&pats, "a::b"));
        assert!(!EffectConfig::matches(&pats, "a::b::c"));
        assert!(EffectConfig::matches(&pats, "x::y::z"));
        assert!(EffectConfig::matches(&pats, "x::y::"));
        assert!(!EffectConfig::matches(&pats, "x::"));
    }
}
