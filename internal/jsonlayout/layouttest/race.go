//go:build race

package layouttest

const raceEnabled = true
