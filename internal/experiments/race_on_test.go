//go:build race

package experiments

// raceEnabled: the race detector makes a simulation ten times slower
// and learns nothing from a statistics run repeated seed after seed.
const raceEnabled = true
