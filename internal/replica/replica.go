// Package replica implements the filter-based replica of the paper's Section
// 3.4.2: entries matching one or more stored LDAP queries (generalized
// filters kept in sync via ReSync); an incoming query is answerable when it
// is semantically contained in any stored query. Section 7.4's window of
// recently performed user queries is a comparison series of the
// experiments and lives with them, in internal/sim.
//
// The subtree baseline of Section 3.4.1 is the same replica holding whole
// subtrees, one stored query (suffix, subtree, match-all) per replicated
// context: for a context without subordinate referrals, the paper's
// isContained(b, C) — the base equals the suffix or lies under it — is
// exactly query containment in that stored query.
package replica
