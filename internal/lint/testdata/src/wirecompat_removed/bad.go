// Three wire structs, each drifted from the golden schema in testdata
// in a different append-only-violating way; wirecompat must flag every
// one against the locked layout.
package shard

// Assignment renamed Shard to ShardID: renames break the locked wire
// order even when the JSON name survives.
type Assignment struct {
	Stage   string `json:"stage"`
	ShardID int    `json:"shard"`
}

// resultHeader changed Entries from int to string — old frames no
// longer decode — and dropped Digest, the acceptance-criterion case:
// deleting a field from the result header is a removal finding.
type resultHeader struct {
	Stage   string `json:"stage"`
	Shard   int    `json:"shard"`
	Entries string `json:"entries"`
}

// Telemetry appended Spans without omitempty: frames from binaries
// that predate the field change byte-for-byte when re-encoded.
type Telemetry struct {
	Worker string   `json:"worker,omitempty"`
	Spans  []string `json:"spans"`
}
