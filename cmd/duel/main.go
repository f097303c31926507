// Command duel is the interactive mini-debugger (mdb) with the DUEL very
// high-level debugging language, reproducing the paper's gdb+DUEL setup:
//
//	duel program.c              # load a micro-C program, then interact
//	duel -s symtab              # load a built-in paper scenario (pre-run)
//	duel -s list -e 'head-->next->value'
//	echo 'run
//	duel x[..10] >? 5' | duel program.c
//
// Inside the debugger, "duel <expr>" evaluates a DUEL expression and prints
// every value it produces, e.g.:
//
//	(mdb) duel x[..100] >? 0
//	x[3] = 7
//	x[18] = 9
//
// Post-mortem mode attaches DUEL to a real core dump (read-only — writes,
// declarations and calls fail with a typed error):
//
//	duel core ./prog ./core                     # interactive (duel) prompt
//	duel -e 'head-->next->val' core ./prog ./core
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"duel"
	"duel/internal/coredbg"
	"duel/internal/debugger"
	"duel/internal/scenarios"
	"duel/internal/target"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "duel:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario = flag.String("s", "", "load a built-in scenario (and run its main): "+strings.Join(scenarios.All, ", "))
		expr     = flag.String("e", "", "evaluate one DUEL expression and exit")
		script   = flag.String("x", "", "execute debugger commands from this file before going interactive")
		backend  = flag.String("backend", "push", "evaluator backend: push or machine")
		dataMB   = flag.Int("data", 16, "target data segment size in MiB")
	)
	flag.Parse()

	cfg := target.DefaultConfig
	cfg.DataSize = *dataMB << 20

	// Post-mortem mode: attach to an ELF core dump.
	if flag.NArg() > 0 && flag.Arg(0) == "core" {
		if flag.NArg() != 3 {
			return fmt.Errorf("usage: duel [-e expr] [-backend b] core <executable> <corefile>")
		}
		input := io.Reader(os.Stdin)
		if *script != "" {
			b, err := os.ReadFile(*script)
			if err != nil {
				return err
			}
			input = io.MultiReader(strings.NewReader(string(b)), os.Stdin)
		}
		return runCore(flag.Arg(1), flag.Arg(2), *expr, *backend, input, os.Stdout)
	}

	// One-shot expression mode against a scenario image.
	if *expr != "" {
		name := *scenario
		if name == "" {
			name = scenarios.Symtab
		}
		d, _, err := scenarios.Build(name, os.Stdout)
		if err != nil {
			return err
		}
		opts := duel.DefaultOptions()
		opts.Backend = *backend
		ses, err := duel.NewSession(d, opts)
		if err != nil {
			return err
		}
		return ses.Exec(os.Stdout, *expr)
	}

	// Interactive mode: a scenario or a micro-C source file.
	var src string
	switch {
	case *scenario != "":
		s, ok := scenarios.Source(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %s)", *scenario, strings.Join(scenarios.All, ", "))
		}
		src = s
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src = string(b)
	default:
		return fmt.Errorf("usage: duel [-s scenario | program.c] [-e expr] [-x script]")
	}

	input := io.Reader(os.Stdin)
	if *script != "" {
		b, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		input = io.MultiReader(strings.NewReader(string(b)), os.Stdin)
	}
	r, err := debugger.NewREPL(src, input, os.Stdout, cfg)
	if err != nil {
		return err
	}
	if *backend != "push" {
		if _, err := r.Command("set backend " + *backend); err != nil {
			return err
		}
	}
	if *scenario != "" {
		// Scenario images are inspected after their main has run.
		if _, err := r.Command("run"); err != nil {
			return err
		}
	}
	return r.Loop()
}

// runCore attaches a DUEL session to a core dump. The substrate is
// read-only, so the session runs with per-element error containment on:
// a query that touches a torn part of the photograph diagnoses that element
// ("<read-only target>", "unmapped address ...") and keeps enumerating,
// which is the behavior wanted post mortem.
func runCore(exe, corePath, expr, backend string, input io.Reader, out io.Writer) error {
	c, err := coredbg.Open(exe, corePath)
	if err != nil {
		return err
	}
	opts := duel.DefaultOptions()
	opts.Backend = backend
	opts.Eval.ErrorValues = true
	opts.Debugger = c // exercised on purpose: sessions can attach via Options
	ses, err := duel.NewSession(nil, opts)
	if err != nil {
		return err
	}
	if expr != "" {
		return ses.Exec(out, expr)
	}

	fmt.Fprintf(out, "duel: post-mortem on %s (core %s), %d frames\n", exe, corePath, c.NumFrames())
	printBacktrace(c, out)
	sc := bufio.NewScanner(input)
	for {
		fmt.Fprint(out, "(duel) ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimSpace(strings.TrimPrefix(line, "duel ")) // gdb-style "duel <expr>" works too
		switch line {
		case "":
			continue
		case "q", "quit":
			return nil
		case "bt", "backtrace":
			printBacktrace(c, out)
			continue
		}
		if err := ses.Exec(out, line); err != nil {
			fmt.Fprintln(out, "duel:", err)
		}
	}
}

func printBacktrace(c *coredbg.Core, out io.Writer) {
	for i := 0; i < c.NumFrames(); i++ {
		name, _ := c.FrameFunc(i)
		fmt.Fprintf(out, "#%d  %s\n", i, name)
	}
}
