//! The integration tests of `sybil-lint`, one module per group of
//! rules or contracts, built as one binary; `support` holds the helpers
//! they share.

mod cli_explain;
mod cost_rules;
mod eff_rules;
mod lint_rules;
mod rule_table;
mod sem_rules;
mod support;
mod workspace_clean;
