// Command dcdatalog evaluates a Datalog program against TSV relations:
//
//	dcdatalog -program tc.dl -rel arc:int,int=edges.tsv -out tc
//	dcdatalog -program sssp.dl -rel warc:int,int,int=w.tsv -param start=1 -out results
//
// Relations are declared inline as name:type,... and loaded from
// whitespace-separated files; -explain prints the plan instead of
// running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	dcdatalog "repro"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "dcdatalog:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var rels, params listFlag
	program := flag.String("program", "", "path to the .dl program (required)")
	flag.Var(&rels, "rel", "relation spec name:type,...=file.tsv (repeatable)")
	flag.Var(&params, "param", "query parameter name=value (repeatable)")
	out := flag.String("out", "", "relation to print (default: all derived)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "dws", "coordination strategy: dws, ssp, global")
	explain := flag.Bool("explain", false, "print the evaluation plan and exit")
	stats := flag.Bool("stats", false, "print execution statistics")
	limit := flag.Int("limit", 0, "print at most this many rows per relation (0 = all)")
	timeout := flag.Duration("timeout", 0, "abort evaluation after this duration, e.g. 30s (0 = no limit)")
	maxTuples := flag.Int64("max-tuples", 0, "per-stratum derived-tuple budget; truncated results are printed with a warning (0 = no limit)")
	flag.Parse()

	if *program == "" {
		return fmt.Errorf("-program is required")
	}
	srcBytes, err := os.ReadFile(*program)
	if err != nil {
		return err
	}

	db := dcdatalog.NewDatabase()
	for _, spec := range rels {
		if err := loadRel(db, spec); err != nil {
			return err
		}
	}

	opts := []dcdatalog.Option{}
	if *workers > 0 {
		opts = append(opts, dcdatalog.WithWorkers(*workers))
	}
	if *maxTuples > 0 {
		opts = append(opts, dcdatalog.WithMaxTuples(*maxTuples))
	}
	switch *strategy {
	case "dws":
	case "ssp":
		opts = append(opts, dcdatalog.WithStrategy(dcdatalog.SSP))
	case "global":
		opts = append(opts, dcdatalog.WithStrategy(dcdatalog.Global))
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	for _, p := range params {
		name, val, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -param %q (want name=value)", p)
		}
		if i, err := strconv.ParseInt(val, 10, 64); err == nil {
			opts = append(opts, dcdatalog.WithParam(name, i))
		} else if f, err := strconv.ParseFloat(val, 64); err == nil {
			opts = append(opts, dcdatalog.WithParam(name, f))
		} else {
			opts = append(opts, dcdatalog.WithParam(name, val))
		}
	}

	if *explain {
		plan, err := db.Explain(string(srcBytes), opts...)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := db.QueryContext(ctx, string(srcBytes), opts...)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("evaluation exceeded -timeout %s: %w", *timeout, err)
	case errors.Is(err, dcdatalog.ErrBudgetExceeded):
		// Truncated but usable: warn on stderr, then print the
		// partial rows like a normal result.
		fmt.Fprintln(os.Stderr, "dcdatalog: warning:", err)
	case err != nil:
		return err
	}
	printRel := func(name string) {
		rows := res.Rows(name)
		fmt.Printf("%% %s: %d tuples\n", name, len(rows))
		n := len(rows)
		if *limit > 0 && n > *limit {
			n = *limit
		}
		for _, r := range rows[:n] {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(parts, "\t"))
		}
		if n < len(rows) {
			fmt.Printf("%% ... %d more\n", len(rows)-n)
		}
	}
	if *out != "" {
		printRel(*out)
	} else {
		st := res.Stats()
		var names []string
		for _, s := range st.Strata {
			names = append(names, s.Preds...)
		}
		sort.Strings(names)
		for _, n := range names {
			printRel(n)
		}
	}
	if *stats {
		st := res.Stats()
		fmt.Printf("%% workers=%d strategy=%s time=%s iters=%d\n",
			st.Workers, st.Strategy, st.Duration, st.TotalIters())
		// Where each stratum ran: on the calling goroutine to its
		// fixpoint, or widened onto worker goroutines after that many
		// derived tuples.
		fmt.Printf("%% strata: cooperative=%d widened=%d coop_iters=%d coop_time=%s\n",
			st.CoopStrata, st.WidenedStrata, st.CoopIters, st.CoopDuration)
		for i, ss := range st.Strata {
			if ss.Widened {
				fmt.Printf("%%   stratum %d %v: widened after %d tuples (coop_iters=%d coop_time=%s)\n",
					i, ss.Preds, ss.WidenedAfter, ss.CoopIters, ss.CoopDuration)
			}
		}
	}
	return nil
}

// loadRel parses "name:int,int=path" and loads the file.
func loadRel(db *dcdatalog.Database, spec string) error {
	decl, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("bad -rel %q (want name:types=file)", spec)
	}
	name, typesStr, ok := strings.Cut(decl, ":")
	if !ok {
		return fmt.Errorf("bad -rel %q (missing :types)", spec)
	}
	var cols []dcdatalog.Column
	for i, ts := range strings.Split(typesStr, ",") {
		var t dcdatalog.Type
		switch strings.TrimSpace(ts) {
		case "int":
			t = dcdatalog.Int
		case "float":
			t = dcdatalog.Float
		case "sym", "string":
			t = dcdatalog.Sym
		default:
			return fmt.Errorf("bad column type %q in %q", ts, spec)
		}
		cols = append(cols, dcdatalog.Col(fmt.Sprintf("c%d", i), t))
	}
	if err := db.Declare(name, cols...); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.LoadTSV(name, f)
}
