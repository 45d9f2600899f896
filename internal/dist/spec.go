package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse builds a Distribution from a compact textual specification, the
// format the command-line tools accept for perturbation scenarios:
//
//	zero                       (constant 0)
//	constant:250               (alias const)
//	uniform:0,500
//	exponential:250            (mean; alias exp)
//	normal:250,50              (mu, sigma; alias gaussian)
//	lognormal:5.0,0.4          (mu, sigma of underlying normal)
//	pareto:100,2.5             (xm, alpha)
//	weibull:100,1.5            (lambda, k)
//	gamma:4,25                 (k, theta)
//	bernoulli:0.01,5000        (p, v: shorthand for spike:p,constant:v)
//	spike:0.01,exponential:5000
//	shifted:100,exponential:50
//	scaled:2,uniform:0,10
//	truncated:0,1000,normal:250,50
//
// Composite specs nest after their scalar arguments, so the final
// argument of spike/shifted/scaled/truncated is itself a spec and may
// contain further colons and commas. Every number must be finite: NaN
// and ±Inf are rejected, since a non-finite parameter turns every
// delay it touches into NaN or ±Inf.
func Parse(spec string) (Distribution, error) {
	spec = strings.TrimSpace(spec)
	name, rest, _ := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	switch name {
	case "constant", "const":
		v, err := one(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: constant: %w", err)
		}
		return Constant{C: v}, nil
	case "zero":
		return Constant{}, nil
	case "uniform":
		lo, hi, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: uniform: %w", err)
		}
		if hi < lo {
			return nil, fmt.Errorf("dist: uniform: high %g < low %g", hi, lo)
		}
		return Uniform{Low: lo, High: hi}, nil
	case "exponential", "exp":
		v, err := one(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: exponential: %w", err)
		}
		if v < 0 {
			return nil, fmt.Errorf("dist: exponential: negative mean %g", v)
		}
		return Exponential{MeanValue: v}, nil
	case "normal", "gaussian":
		mu, sigma, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: normal: %w", err)
		}
		if sigma < 0 {
			return nil, fmt.Errorf("dist: normal: negative sigma %g", sigma)
		}
		return Normal{Mu: mu, Sigma: sigma}, nil
	case "lognormal":
		mu, sigma, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: lognormal: %w", err)
		}
		if sigma < 0 {
			return nil, fmt.Errorf("dist: lognormal: negative sigma %g", sigma)
		}
		return LogNormal{Mu: mu, Sigma: sigma}, nil
	case "pareto":
		xm, alpha, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: pareto: %w", err)
		}
		if xm <= 0 || alpha <= 0 {
			return nil, fmt.Errorf("dist: pareto: xm and alpha must be positive")
		}
		return Pareto{Xm: xm, Alpha: alpha}, nil
	case "weibull":
		lambda, k, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: weibull: %w", err)
		}
		if lambda <= 0 || k <= 0 {
			return nil, fmt.Errorf("dist: weibull: lambda and k must be positive")
		}
		return Weibull{Lambda: lambda, K: k}, nil
	case "gamma":
		k, theta, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: gamma: %w", err)
		}
		if k <= 0 || theta <= 0 {
			return nil, fmt.Errorf("dist: gamma: k and theta must be positive")
		}
		return Gamma{K: k, Theta: theta}, nil
	case "bernoulli":
		p, v, err := two(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: bernoulli: %w", err)
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("dist: bernoulli: probability %g outside [0,1]", p)
		}
		return Spike{P: p, Magnitude: Constant{C: v}}, nil
	case "spike":
		p, inner, err := scalarThenSpec(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: spike: %w", err)
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("dist: spike: probability %g outside [0,1]", p)
		}
		return Spike{P: p, Magnitude: inner}, nil
	case "shifted":
		off, inner, err := scalarThenSpec(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: shifted: %w", err)
		}
		return Shifted{Offset: off, Inner: inner}, nil
	case "scaled":
		f, inner, err := scalarThenSpec(rest)
		if err != nil {
			return nil, fmt.Errorf("dist: scaled: %w", err)
		}
		return Scaled{Factor: f, Inner: inner}, nil
	case "truncated":
		parts := strings.SplitN(rest, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("dist: truncated: want low,high,spec")
		}
		lo, err := one(parts[0])
		if err != nil {
			return nil, fmt.Errorf("dist: truncated low: %w", err)
		}
		hi, err := one(parts[1])
		if err != nil {
			return nil, fmt.Errorf("dist: truncated high: %w", err)
		}
		if hi < lo {
			return nil, fmt.Errorf("dist: truncated: high %g < low %g", hi, lo)
		}
		inner, err := Parse(parts[2])
		if err != nil {
			return nil, err
		}
		return Truncated{Low: lo, High: hi, Inner: inner}, nil
	case "":
		return nil, fmt.Errorf("dist: empty distribution spec")
	default:
		return nil, fmt.Errorf("dist: unknown distribution %q", name)
	}
}

// MustParse is Parse that panics on error; for tests and compile-time
// constant specs.
func MustParse(spec string) Distribution {
	d, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return d
}

func one(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return v, nil
}

func two(s string) (float64, float64, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want two comma-separated numbers, got %q", s)
	}
	a, err := one(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := one(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func scalarThenSpec(s string) (float64, Distribution, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return 0, nil, fmt.Errorf("want scalar,spec, got %q", s)
	}
	v, err := one(parts[0])
	if err != nil {
		return 0, nil, err
	}
	inner, err := Parse(parts[1])
	if err != nil {
		return 0, nil, err
	}
	return v, inner, nil
}
