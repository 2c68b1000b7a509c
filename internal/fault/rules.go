// Rules: the textual grammar behind the -faults flag, mapping grid cells
// to fault plans.
//
// Grammar (entries separated by ';', whitespace around tokens ignored):
//
//	entry    = cell "=" fault
//	cell     = workload "/" scheme "/" trh      ("*" wildcards any field)
//	fault    = kind "@" trigger
//	trigger  = "p:" float                       probabilistic per opportunity
//	         | "once:" picoseconds              one-shot at or after time N
//	         | "burst:" picoseconds ":" count   burst of `count` fires from N
//
// Examples:
//
//	xz/rrs/1000=panic@once:0
//	wrf/aqua-sram/*=rqa-overflow@p:0.02
//	*/*/*=ecc-flip@burst:1000000:8
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// rule is one parsed entry: a cell pattern plus the arm it injects.
type rule struct {
	workload string // "*" = any
	scheme   string // "*" = any
	trh      int64  // 0 = any (the grammar's "*")
	arm      Arm
}

// Rules maps grid cells to fault plans. A nil *Rules matches nothing.
type Rules struct {
	//aquakey:exclude the canonical spec renders every rule, and it is what cell keys hash
	rules []rule
	spec  string // canonical form, parse-stable
}

// ParseRules parses the -faults grammar. An empty spec returns nil (no
// faults), so callers can pass the flag value through unconditionally.
func ParseRules(spec string) (*Rules, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	r := &Rules{}
	var canon []string
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		ru, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		r.rules = append(r.rules, ru)
		canon = append(canon, ru.String())
	}
	if len(r.rules) == 0 {
		return nil, nil
	}
	r.spec = strings.Join(canon, ";")
	return r, nil
}

func parseEntry(entry string) (rule, error) {
	cell, fault, ok := strings.Cut(entry, "=")
	if !ok {
		return rule{}, fmt.Errorf("fault: entry %q: want cell=kind@trigger", entry)
	}
	parts := strings.Split(strings.TrimSpace(cell), "/")
	if len(parts) != 3 {
		return rule{}, fmt.Errorf("fault: cell %q: want workload/scheme/trh", cell)
	}
	ru := rule{workload: strings.TrimSpace(parts[0]), scheme: strings.TrimSpace(parts[1])}
	if ru.workload == "" || ru.scheme == "" {
		return rule{}, fmt.Errorf("fault: cell %q: empty workload or scheme", cell)
	}
	if trh := strings.TrimSpace(parts[2]); trh != "*" {
		v, err := strconv.ParseInt(trh, 10, 64)
		if err != nil || v <= 0 {
			return rule{}, fmt.Errorf("fault: cell %q: trh must be a positive integer or *", cell)
		}
		ru.trh = v
	}

	kindStr, trig, ok := strings.Cut(strings.TrimSpace(fault), "@")
	if !ok {
		return rule{}, fmt.Errorf("fault: %q: want kind@trigger", fault)
	}
	kind, ok := KindByName(strings.TrimSpace(kindStr))
	if !ok {
		return rule{}, fmt.Errorf("fault: unknown kind %q (known: %s)", kindStr, strings.Join(kindNames[:CellPanic+1], ", "))
	}
	sched, err := parseTrigger(strings.TrimSpace(trig))
	if err != nil {
		return rule{}, err
	}
	ru.arm = Arm{Kind: kind, Schedule: sched}
	return ru, nil
}

func parseTrigger(trig string) (Schedule, error) {
	head, rest, _ := strings.Cut(trig, ":")
	switch head {
	case "p":
		p, err := strconv.ParseFloat(rest, 64)
		if err != nil || p < 0 || p > 1 {
			return Schedule{}, fmt.Errorf("fault: trigger %q: p wants a probability in [0,1]", trig)
		}
		return Schedule{Trigger: TriggerProb, P: p}, nil
	case "once":
		at, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || at < 0 {
			return Schedule{}, fmt.Errorf("fault: trigger %q: once wants a non-negative picosecond time", trig)
		}
		return Schedule{Trigger: TriggerOnce, At: at}, nil
	case "burst":
		atStr, countStr, ok := strings.Cut(rest, ":")
		if !ok {
			return Schedule{}, fmt.Errorf("fault: trigger %q: want burst:at:count", trig)
		}
		at, err1 := strconv.ParseInt(atStr, 10, 64)
		count, err2 := strconv.ParseInt(countStr, 10, 64)
		if err1 != nil || err2 != nil || at < 0 || count < 1 {
			return Schedule{}, fmt.Errorf("fault: trigger %q: want burst:at:count with count >= 1", trig)
		}
		return Schedule{Trigger: TriggerBurst, At: at, Count: count}, nil
	default:
		return Schedule{}, fmt.Errorf("fault: unknown trigger %q (want p:, once:, burst:)", trig)
	}
}

// String renders one rule in canonical grammar form.
func (ru rule) String() string {
	trh := "*"
	if ru.trh != 0 {
		trh = strconv.FormatInt(ru.trh, 10)
	}
	return fmt.Sprintf("%s/%s/%s=%s@%s", ru.workload, ru.scheme, trh, ru.arm.Kind, ru.arm.Schedule)
}

// String returns the canonical spec: parse-stable, so a printed rule set
// re-parses to the same rules. A nil *Rules renders as the empty string.
func (r *Rules) String() string {
	if r == nil {
		return ""
	}
	return r.spec
}

// PlanFor collects the arms whose cell patterns match (workload, scheme,
// trh). A nil *Rules returns the empty plan.
func (r *Rules) PlanFor(workload, scheme string, trh int64) Plan {
	if r == nil {
		return Plan{}
	}
	var p Plan
	for _, ru := range r.rules {
		if ru.workload != "*" && ru.workload != workload {
			continue
		}
		if ru.scheme != "*" && ru.scheme != scheme {
			continue
		}
		if ru.trh != 0 && ru.trh != trh {
			continue
		}
		p.Arms = append(p.Arms, ru.arm)
	}
	return p
}
