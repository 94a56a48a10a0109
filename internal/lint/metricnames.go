package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// metricnamesAnalyzer keeps the Prometheus exposition golden test honest:
// every metric family name handed to the metrics registry or the telemetry
// hub must match ^[a-z0-9_.]+$ at compile time. The analyzer constant-folds
// what it can before judging:
//
//   - fully constant expressions (literals, const identifiers, concats of
//     them) are validated on their folded value;
//   - fmt.Sprintf calls with a constant format, and string concatenations
//     mixing constant and runtime parts, are validated on their skeleton —
//     every verb or runtime operand replaced by a placeholder digit — so a
//     family like "worker."+id+".frames" is provably clean without an
//     annotation, while Sprintf("Worker-%d", i) is provably dirty;
//   - names built by opaque calls stay unverifiable and must carry the
//     deliberate-dynamic annotation, so each one is a reviewed decision.
var metricnamesAnalyzer = &Analyzer{
	Name:    "metricnames",
	Doc:     "metric/histogram names must be ^[a-z0-9_.]+$ string literals",
	Exclude: []string{"metrics", "telemetry"}, // their own internals are generic
	Run:     runMetricNames,
}

var metricNameRE = regexp.MustCompile(`^[a-z0-9_.]+$`)

// namedCallTargets maps (type package suffix, type name) to the method
// names whose first argument is a metric family name.
var namedCallTargets = map[string]map[string]bool{
	"internal/metrics.Registry":    {"Counter": true, "Gauge": true, "Time": true},
	"internal/telemetry.Telemetry": {"Histogram": true, "Window": true, "SetGaugeFunc": true},
}

func runMetricNames(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			method, pkgPath, typeName, ok := methodOnType(p, call)
			if !ok {
				return true
			}
			var methods map[string]bool
			for key, m := range namedCallTargets {
				dot := strings.LastIndex(key, ".")
				if strings.HasSuffix(pkgPath, key[:dot]) && typeName == key[dot+1:] {
					methods = m
					break
				}
			}
			if methods == nil || !methods[method] {
				return true
			}
			arg := call.Args[0]
			name, fold := foldMetricName(p, arg)
			switch fold {
			case foldExact:
				if !metricNameRE.MatchString(name) {
					d := diagAt(p, "metricnames", arg,
						"metric name %q must match ^[a-z0-9_.]+$ (lowercase, digits, underscore, dot)", name)
					d.Suggestion = strconv.Quote(sanitizeMetricName(name))
					out = append(out, d)
				}
			case foldSkeleton:
				if !metricNameRE.MatchString(name) {
					out = append(out, diagAt(p, "metricnames", arg,
						"dynamic metric name folds to %q, which cannot match ^[a-z0-9_.]+$ for any runtime value", name))
				}
			default:
				out = append(out, diagAt(p, "metricnames", arg,
					"%s.%s name is built at runtime; use a literal family plus labels, or annotate this deliberate dynamic series", typeName, method))
			}
			return true
		})
	}
	return out
}

// Folding outcomes for a metric-name expression.
const (
	foldUnknown = iota
	// foldExact: the expression is fully constant; name is its value.
	foldExact
	// foldSkeleton: constant shape with runtime holes; name has every hole
	// replaced by the placeholder digit "0" (legal in a metric name, so a
	// clean skeleton stays clean for every runtime value that is itself
	// clean — the hole contents remain the caller's responsibility, which
	// is the same contract Prometheus labels get).
	foldSkeleton
)

// foldMetricName constant-folds a metric-name expression as far as the type
// checker's constant info allows.
func foldMetricName(p *Package, e ast.Expr) (string, int) {
	e = ast.Unparen(e)
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), foldExact
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		// A concat with at least one runtime operand (a fully constant one
		// was caught above): fold each side, defaulting holes to "0".
		l, lk := foldMetricName(p, x.X)
		r, rk := foldMetricName(p, x.Y)
		if lk == foldUnknown {
			l = "0"
		}
		if rk == foldUnknown {
			r = "0"
		}
		return l + r, foldSkeleton
	case *ast.CallExpr:
		if name, path, ok := pkgFuncObj(p, x.Fun); ok && path == "fmt" && name == "Sprintf" && len(x.Args) > 0 {
			if tv, ok := p.Info.Types[ast.Unparen(x.Args[0])]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				return sprintfSkeleton(constant.StringVal(tv.Value)), foldSkeleton
			}
		}
		// A conversion like string(op) is a single runtime hole.
		if isStringConversion(p, x) {
			return "0", foldSkeleton
		}
	}
	return "", foldUnknown
}

// isStringConversion reports whether call is a conversion to a string type.
func isStringConversion(p *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	basic, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && basic.Kind() == types.String
}

// sprintfSkeleton replaces every format verb with the placeholder digit and
// unescapes %%, yielding the name's compile-time shape.
func sprintfSkeleton(format string) string {
	var b strings.Builder
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		// Skip flags, width, precision and the verb itself.
		for i < len(format) {
			c := format[i]
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				break
			}
			i++
		}
		b.WriteByte('0')
	}
	return b.String()
}

var metricBadChar = regexp.MustCompile(`[^a-z0-9_.]+`)

// sanitizeMetricName is the mechanical rewrite offered by -diff: lowercase
// and collapse every illegal run to a single underscore.
func sanitizeMetricName(s string) string {
	s = metricBadChar.ReplaceAllString(strings.ToLower(s), "_")
	s = strings.Trim(s, "_")
	if s == "" {
		return "unnamed"
	}
	return s
}
