package server

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"selforg"
)

// TestMetricsTableListsEveryFamily holds README's "Exported metrics"
// table to the registry: a durable tenant of each strategy, served
// through the Server, exports exactly the families the table lists, with
// the listed types — sharded (2 shards) and unsharded alike, since an
// unsharded column is a one-shard router and exports the router's
// families too.
func TestMetricsTableListsEveryFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	start := strings.Index(doc, "Exported metrics")
	if start < 0 {
		t.Fatal(`README has no "Exported metrics" table`)
	}
	doc = doc[start:]
	if end := strings.Index(doc, "\n## "); end >= 0 {
		doc = doc[:end]
	}
	listed := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| ([a-z]+) \\|").FindAllStringSubmatch(doc, -1) {
		listed[m[1]] = m[2]
	}

	for _, shards := range []int{2, 0} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ob := selforg.NewObserver()
			for _, strat := range []selforg.Strategy{selforg.Segmentation, selforg.Replication} {
				cfg := testConfig()
				cfg.Observer = ob
				cfg.Options.Strategy = strat
				cfg.Options.Shards = shards
				cfg.Options.Durability = selforg.Durability{Dir: t.TempDir()}
				s := New(cfg)
				for _, stmt := range []string{
					"SELECT COUNT(*) FROM P WHERE v BETWEEN 10 AND 5000",
					"INSERT INTO P VALUES (5)",
					"SELECT v FROM P WHERE v BETWEEN 10 AND 20",
				} {
					if _, err := s.Exec(strat.String(), stmt); err != nil {
						s.Close()
						t.Fatal(err)
					}
				}
				s.Close()
			}
			var buf bytes.Buffer
			ob.Registry.WritePrometheus(&buf)
			exported := map[string]string{}
			for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(buf.String(), -1) {
				exported[m[1]] = m[2]
			}
			if len(exported) == 0 {
				t.Fatal("the registry exported no families")
			}
			for fam, typ := range exported {
				switch listed[fam] {
				case "":
					t.Errorf("README's metrics table does not list %s (%s)", fam, typ)
				case typ:
				default:
					t.Errorf("README lists %s as a %s, the registry exports a %s", fam, listed[fam], typ)
				}
			}
			for fam := range listed {
				if _, ok := exported[fam]; !ok {
					t.Errorf("README's metrics table lists %s, which the registry does not export", fam)
				}
			}
		})
	}
}
