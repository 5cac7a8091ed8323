// Package examples embeds the chaos catalog's scenario specs, so the one
// representation of each (the JSON file `bidl run -scenario` and the chaos
// test gate read from disk) is also what `bidl bench -run chaos` runs from
// any working directory.
package examples

import "embed"

// ChaosSpecs holds the scenario-chaos-*.json files; internal/chaos.Catalog
// names them and fixes their order.
//
//go:embed scenario-chaos-*.json
var ChaosSpecs embed.FS
