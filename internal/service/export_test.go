package service

import (
	"reflect"
	"slices"
)

// SweepCells is FuzzValidCellRuns's seed corpus as the cells its fuzz
// loop runs: each point of selectorSweep through fuzzSpec, clamped by
// runnable. The external test package's door tests run them as
// generated scenarios.
func SweepCells() []CellSpec {
	spec := reflect.ValueOf(fuzzSpec)
	var cells []CellSpec
	for _, args := range selectorSweep() {
		in := make([]reflect.Value, len(args))
		for i, a := range args {
			in[i] = reflect.ValueOf(a)
		}
		cells = append(cells, runnable(spec.Call(in)[0].Interface().(CellSpec)))
	}
	return cells
}

// AppendResult and ParseResult are the result codec's writer and its
// in-place reader, for FuzzResultCodec in the external test package.
var (
	AppendResult = appendResult
	ParseResult  = parseResult
)

// ParseJobBody and DecodeJobBody are the job body's in-place reader and
// its decoder, for FuzzJobBody in the external test package.
var (
	ParseJobBody  = parseJobBody
	DecodeJobBody = decodeJobBody
)

// SDKJobCells is the SDK's 32-cell job of TestSubmitBodyVerdicts.
var SDKJobCells = sdkJobCells

// KnownNames is the result reader's name table in byte order, for the
// codec fuzzers' seeds.
func KnownNames() []string {
	var names []string
	for s := range knownNames {
		names = append(names, s)
	}
	slices.Sort(names)
	return names
}
