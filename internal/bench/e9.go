package bench

import (
	"errors"
	"fmt"

	"gridrm/internal/driver"
	"gridrm/internal/resultset"
)

func init() {
	register(Experiment{
		ID:     "e9",
		Anchor: "§3.2.1: incremental driver development on unimplemented super-classes",
		Claim: "a driver implementing only a subset of the API behaves like a full " +
			"driver that errored — every unimplemented method fails uniformly with " +
			"ErrNotImplemented rather than being a compile-time hole, and the base " +
			"indirection costs nanoseconds",
		run: runE9,
	})
}

// minimalStmt implements exactly one method over the base, as the paper's
// minimal-driver recipe prescribes.
type minimalStmt struct {
	driver.UnimplementedStmt
}

func (minimalStmt) ExecuteQuery(string) (*resultset.ResultSet, error) {
	meta, err := resultset.NewMetadata([]resultset.Column{{Name: "X"}})
	if err != nil {
		return nil, err
	}
	return resultset.New(meta), nil
}

func runE9(r *run) error {
	// API surface coverage: every method of the base types must answer,
	// none may panic, and fallible ones must return ErrNotImplemented.
	type call struct {
		name  string
		check func() (string, bool)
	}
	base := driver.UnimplementedConn{}
	stmt := driver.UnimplementedStmt{}
	calls := []call{
		{"Conn.CreateStatement", func() (string, bool) {
			_, err := base.CreateStatement()
			return outcome(err), errors.Is(err, driver.ErrNotImplemented)
		}},
		{"Conn.Ping", func() (string, bool) {
			err := base.Ping()
			return outcome(err), errors.Is(err, driver.ErrNotImplemented)
		}},
		{"Conn.Close", func() (string, bool) {
			err := base.Close()
			return outcome(err), err == nil // closing a minimal driver is safe
		}},
		{"Conn.URL", func() (string, bool) { return "\"\"", base.URL() == "" }},
		{"Conn.Driver", func() (string, bool) { return "\"\"", base.Driver() == "" }},
		{"Conn.SourceInfo", func() (string, bool) {
			return "zero value", base.SourceInfo().Protocol == ""
		}},
		{"Stmt.ExecuteQuery", func() (string, bool) {
			_, err := stmt.ExecuteQuery("SELECT * FROM Processor")
			return outcome(err), errors.Is(err, driver.ErrNotImplemented)
		}},
		{"Stmt.SetMaxRows", func() (string, bool) {
			err := stmt.SetMaxRows(10)
			return outcome(err), errors.Is(err, driver.ErrNotImplemented)
		}},
		{"Stmt.Close", func() (string, bool) {
			err := stmt.Close()
			return outcome(err), err == nil
		}},
	}
	t := newTable(r.w, "API method", "behaviour", "as specified")
	allOK := true
	for _, c := range calls {
		got, ok := c.check()
		allOK = allOK && ok
		t.row(c.name, got, ok)
	}
	t.flush()
	if !allOK {
		return fmt.Errorf("base-class contract violated")
	}

	// Cost of the pattern: unimplemented error path vs a one-method
	// override, both through the interface.
	var s driver.Stmt = driver.UnimplementedStmt{}
	unimpl := r.measure("unimplemented-error-path", loop(func() error {
		_, err := s.ExecuteQuery("q")
		if !errors.Is(err, driver.ErrNotImplemented) {
			return fmt.Errorf("ExecuteQuery = %v, want ErrNotImplemented", err)
		}
		return nil
	}))
	var ms driver.Stmt = minimalStmt{}
	impl := r.measure("minimal-override", loop(func() error {
		_, err := ms.ExecuteQuery("q")
		return err
	}))
	fmt.Fprintf(r.w, "\ncall cost: unimplemented (error path) %s/call, minimal override %s/call\n",
		perOp(unimpl), perOp(impl))
	fmt.Fprintf(r.w, "a minimal driver (1 of %d methods overridden) is fully usable through the API\n", len(calls))
	return nil
}

func outcome(err error) string {
	if err == nil {
		return "nil error"
	}
	if errors.Is(err, driver.ErrNotImplemented) {
		return "ErrNotImplemented"
	}
	return err.Error()
}
