// Package decouple models the data-decoupling design space of §4: how
// memory instructions are steered into the LSQ or LVAQ, and how a
// mispredicted steer recovers. It builds the steering classifiers and
// trace options for each policy — the paper's hardware ARPT against
// static-only, compiler-informed, profile-oracle and perfect steering —
// and the Recovery checker that validates the simulator's
// detect → cancel → replay protocol. The ablations comparing the
// policies (E12) and LVAQ fast forwarding (E13) run as stages of the
// experiments Runner.
package decouple

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Policy selects how dispatch decides stack vs non-stack.
type Policy int

// Steering policies.
const (
	// PolicyARPT is the paper's hardware mechanism: addressing-mode
	// rules plus the 32K-entry hybrid-context ARPT (§4.2-4.3). Runs
	// existing binaries unmodified.
	PolicyARPT Policy = iota
	// PolicyCompiler adds the MiniC Figure 6 static hints in front of
	// the ARPT (tagged instructions bypass the table).
	PolicyCompiler
	// PolicyOracle adds the §3.5.2 profile-based hints (the paper's
	// idealized compiler information).
	PolicyOracle
	// PolicyStaticOnly uses only the addressing-mode rules; uncovered
	// references default to non-stack (no table at all).
	PolicyStaticOnly
	// PolicyPerfect steers every reference to its true region — the
	// contamination-free upper bound.
	PolicyPerfect
)

var policyNames = map[Policy]string{
	PolicyARPT:       "arpt",
	PolicyCompiler:   "arpt+compiler",
	PolicyOracle:     "arpt+oracle",
	PolicyStaticOnly: "static-only",
	PolicyPerfect:    "perfect",
}

func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// AllPolicies lists the steering policies in ablation order.
var AllPolicies = []Policy{
	PolicyStaticOnly, PolicyARPT, PolicyCompiler, PolicyOracle, PolicyPerfect,
}

// Classifier builds the core classifier implementing a policy for
// program p. PolicyOracle requires a profile pr (it is ignored
// otherwise); PolicyPerfect returns nil: callers enable perfect
// steering in the trace options instead.
func Classifier(policy Policy, p *prog.Program, pr *profile.Profile) (*core.Classifier, error) {
	switch policy {
	case PolicyARPT, PolicyCompiler, PolicyOracle:
		table, err := core.NewARPT(core.DefaultPipelineConfig())
		if err != nil {
			return nil, err
		}
		opts := []core.ClassifierOption{core.WithTable(table)}
		if policy == PolicyCompiler {
			opts = append(opts, core.WithHints(p.HintAt))
		}
		if policy == PolicyOracle {
			if pr == nil {
				return nil, fmt.Errorf("decouple: oracle policy requires a profile")
			}
			opts = append(opts, core.WithHints(pr.Oracle()))
		}
		return core.NewClassifier(core.ClassifierConfig{Scheme: core.Scheme1BitHybrid}, opts...)
	case PolicyStaticOnly:
		return core.NewClassifier(core.ClassifierConfig{Scheme: core.SchemeStatic})
	case PolicyPerfect:
		return nil, nil
	}
	return nil, fmt.Errorf("decouple: unknown policy %v", policy)
}

// TraceOptions renders a policy into cpu trace options.
func TraceOptions(policy Policy, p *prog.Program, pr *profile.Profile) (cpu.TraceOptions, error) {
	if policy == PolicyPerfect {
		return cpu.TraceOptions{PerfectSteering: true}, nil
	}
	cls, err := Classifier(policy, p, pr)
	if err != nil {
		return cpu.TraceOptions{}, err
	}
	return cpu.TraceOptions{Classifier: cls}, nil
}
