package repro_test

import (
	"fmt"
	"strings"

	"repro"
)

// ExampleAnalyzeSPSTA analyzes the paper's running example — a
// two-input AND gate with scenario I inputs — and prints the Eq. 10
// four-value probabilities.
func ExampleAnalyzeSPSTA() {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c, err := repro.ParseBench(strings.NewReader(src), "and2")
	if err != nil {
		panic(err)
	}
	res, err := repro.AnalyzeSPSTA(c, repro.UniformInputs(c), repro.SPSTAOptions{})
	if err != nil {
		panic(err)
	}
	y, _ := c.Node("y")
	fmt.Printf("P0=%.4f P1=%.4f Pr=%.4f Pf=%.4f\n",
		res.Probability(y.ID, repro.Zero),
		res.Probability(y.ID, repro.One),
		res.Probability(y.ID, repro.Rise),
		res.Probability(y.ID, repro.Fall))
	// Output:
	// P0=0.5625 P1=0.0625 Pr=0.1875 Pf=0.1875
}

// ExampleAnalyzeSSTA shows the baseline's Clark MAX on the same
// gate: E[max of two standard normals] = 1/sqrt(pi), plus the unit
// gate delay.
func ExampleAnalyzeSSTA() {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c, err := repro.ParseBench(strings.NewReader(src), "and2")
	if err != nil {
		panic(err)
	}
	res := repro.AnalyzeSSTA(c, repro.UniformInputs(c), nil)
	y, _ := c.Node("y")
	arr := res.At(y.ID, repro.DirRise)
	fmt.Printf("rise mu=%.4f sigma=%.4f\n", arr.Mu, arr.Sigma)
	// Output:
	// rise mu=1.5642 sigma=0.8256
}

// ExampleSignalProbabilities reproduces the paper's Fig. 3 signal
// probability computation.
func ExampleSignalProbabilities() {
	src := "INPUT(x1)\nINPUT(x2)\nOUTPUT(y)\ny = AND(x1, x2)\n"
	c, err := repro.ParseBench(strings.NewReader(src), "fig3")
	if err != nil {
		panic(err)
	}
	probs := repro.SignalProbabilities(c, nil) // defaults: P = 0.5
	y, _ := c.Node("y")
	fmt.Printf("P(y) = %.2f\n", probs[y.ID])
	// Output:
	// P(y) = 0.25
}

// ExampleGenerateBenchmark generates a profile-matched synthetic
// ISCAS'89 circuit.
func ExampleGenerateBenchmark() {
	c, err := repro.GenerateBenchmark("s298")
	if err != nil {
		panic(err)
	}
	st := c.Stats()
	fmt.Printf("%s: %d inputs, %d DFFs, %d gates, depth %d\n",
		st.Name, st.Inputs, st.DFFs, st.Gates, st.Depth)
	// Output:
	// s298: 3 inputs, 14 DFFs, 119 gates, depth 6
}

// ExampleEnumeratePaths lists the two longest paths of a diamond.
func ExampleEnumeratePaths() {
	src := `
INPUT(a)
OUTPUT(y)
u1 = BUFF(a)
v1 = BUFF(a)
v2 = BUFF(v1)
y  = AND(u1, v2)
`
	c, err := repro.ParseBench(strings.NewReader(src), "diamond")
	if err != nil {
		panic(err)
	}
	y, _ := c.Node("y")
	for _, p := range repro.EnumeratePaths(c, y.ID, 4) {
		fmt.Printf("length %d via %s\n", p.Length, c.Nodes[p.Nodes[1]].Name)
	}
	// Output:
	// length 3 via v1
	// length 2 via u1
}
