// Command benchtables prints every experiment table (E1–E14). Each table
// corresponds to one claim of the paper's evaluation (its complexity
// theorems); internal/experiments documents each, and its
// testdata/tables.golden pins the numbers.
//
// Usage:
//
//	benchtables [-only E9]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dynctrl/internal/experiments"
	"dynctrl/internal/stats"
)

func main() {
	only := flag.String("only", "", "run only the experiment whose table title contains this string (e.g. E9)")
	flag.Parse()
	if err := run(*only); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(only string) error {
	var tables []*stats.Table
	if only == "" {
		tables = experiments.All()
	} else {
		for _, tb := range experiments.All() {
			if strings.Contains(tb.Title, only) {
				tables = append(tables, tb)
			}
		}
		if len(tables) == 0 {
			return fmt.Errorf("no experiment matches %q", only)
		}
	}
	for _, tb := range tables {
		fmt.Println(tb)
	}
	return nil
}
