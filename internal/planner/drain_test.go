package planner

import (
	"context"

	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// Test helpers that compile a statement, mediation or prepared plan with
// the executor's entry points and drain the iterator tree to a relation
// under the session's context — what a service layer does to answer a
// buffered query. A nil session is the ungoverned case.

// runStmt plans and drains stmt under a fresh session over ctx with no
// limits.
func runStmt(ctx context.Context, ex *Executor, stmt sqlparse.Statement) (*relalg.Relation, error) {
	sess := ex.NewSession(ctx, Limits{})
	defer sess.Close()
	return collectStmt(ex, sess, stmt)
}

// collectStmt plans and drains stmt under sess.
func collectStmt(ex *Executor, sess *Session, stmt sqlparse.Statement) (*relalg.Relation, error) {
	it, err := ex.StatementStream(sess, stmt)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}

// runMediation drains med under a fresh session over ctx with no limits.
func runMediation(ctx context.Context, ex *Executor, med *core.Mediation) (*relalg.Relation, error) {
	sess := ex.NewSession(ctx, Limits{})
	defer sess.Close()
	return collectMediation(ex, sess, med)
}

// collectMediation drains med under sess.
func collectMediation(ex *Executor, sess *Session, med *core.Mediation) (*relalg.Relation, error) {
	it, err := ex.MediationStream(sess, med)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}

// collectPlan compiles a prepared plan and drains it under sess.
func collectPlan(ex *Executor, sess *Session, plan *BranchPlan) (*relalg.Relation, error) {
	it, err := ex.BuildStream(sess, plan)
	if err != nil {
		return nil, err
	}
	return relalg.Collect(sess.Context(), it, "")
}
