// Package core implements Querc itself — the database-agnostic workload
// management architecture of the paper (Fig. 1).
//
// The design splits every workload-management application into two learned
// components with a hard interface between them:
//
//   - an Embedder turns raw query text into a dense vector. Embedders are
//     expensive to train, so they are trained centrally on very large
//     (possibly multi-tenant) workloads and shared across applications;
//   - a Labeler turns a vector into a label. Labelers are small, cheap,
//     application-specific models (or rules) trained per tenant.
//
// A Classifier is a deployable (embedder, labeler) pair. A Qworker hosts the
// classifiers of one application's query stream, annotating each query with
// predicted labels before it continues to the database. The central training
// module learns from the databases' query logs, which carry true labels: it
// manages training sets, retrains models, and deploys new versions back to
// Qworkers.
//
// Everything is expressed over the one shared data model of the paper: the
// labeled query (Q, c1, c2, ...).
package core

import (
	"fmt"
	"sort"
	"time"

	"querc/internal/obs"
	"querc/internal/vec"
)

// LabeledQuery is the only message type exchanged between Querc components:
// a query text plus a set of named labels. Labels carry both metadata that
// arrives with the query (userid, timestamp, IP) and labels predicted or
// observed later (cluster, error code, runtime class).
type LabeledQuery struct {
	SQL     string            `json:"sql"`
	App     string            `json:"app"`               // application / stream name
	Arrival time.Time         `json:"arrival,omitempty"` // zero when unknown
	Labels  map[string]string `json:"labels,omitempty"`

	// trace is the query's lifecycle trace, begun afresh by the Qworker on
	// every annotation when the query is sampled (nil otherwise) and settled
	// exactly once at the terminal outcome — by the dispatcher when the query
	// enters the scheduling plane, by the Qworker when it does not.
	// Unexported: the trace identifies one in-flight query, so Clone drops it
	// rather than aliasing the settle.
	trace *obs.Trace
}

// Trace returns the attached lifecycle trace, or nil when the query is
// unsampled (the usual case).
func (q *LabeledQuery) Trace() *obs.Trace { return q.trace }

// SetTrace attaches a lifecycle trace (nil detaches). Only callers that hand
// queries straight to the scheduling plane (Dispatcher.Enqueue) attach
// traces; the Qworker begins a fresh trace for every query it annotates,
// replacing any attached one. The caller keeps the settle obligation until
// the query is handed to the scheduling plane.
func (q *LabeledQuery) SetTrace(t *obs.Trace) { q.trace = t }

// Clone returns a deep copy (labels map included). The lifecycle trace is
// NOT carried over: a trace settles exactly once per submitted query, and
// the clone is not that query.
func (q *LabeledQuery) Clone() *LabeledQuery {
	out := *q
	out.trace = nil
	out.Labels = make(map[string]string, len(q.Labels))
	for k, v := range q.Labels {
		out.Labels[k] = v
	}
	return &out
}

// Label returns the value for key, or "".
func (q *LabeledQuery) Label(key string) string { return q.Labels[key] }

// SetLabel sets key=value, allocating the map if needed.
//
//querc:allow-alloc lazy label-map init is part of constructing the result
func (q *LabeledQuery) SetLabel(key, value string) {
	if q.Labels == nil {
		q.Labels = make(map[string]string)
	}
	q.Labels[key] = value
}

// LabelKeys returns the sorted label keys (deterministic output for logs).
func (q *LabeledQuery) LabelKeys() []string {
	keys := make([]string, 0, len(q.Labels))
	for k := range q.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Embedder maps SQL text to a learned vector representation. Implementations
// must be safe for concurrent use (Qworkers run in parallel).
type Embedder interface {
	// Embed returns the vector representation of the query text.
	Embed(sql string) vec.Vector
	// Dim returns the dimensionality of returned vectors.
	Dim() int
	// Name identifies the trained model (e.g. "lstm(snowflake-500k)").
	Name() string
}

// BatchEmbedder is an Embedder that can embed many texts in one call. The
// batch form lets implementations dedupe identical token sequences before
// inference (the doc2vec and LSTM adapters do), so a batch dominated by
// literal repeats pays for each distinct query once. EmbedBatch returns one
// vector per input, index-aligned; duplicated inputs may share the same
// backing vector, so callers must treat returned vectors as immutable.
type BatchEmbedder interface {
	Embedder
	EmbedBatch(sqls []string) []vec.Vector
}

// TokenizedEmbedder is an Embedder that can consume pre-tokenized query
// text. The Qworker runtime lexes each query once per submit
// (TokenizeForEmbedding) and hands the token sequence to every deployed
// embedder that supports it, so hosting several distinct embedders does not
// re-tokenize the same SQL per embedder. Both learned adapters (doc2vec,
// LSTM) implement it; plain Embedders keep working via the string path.
type TokenizedEmbedder interface {
	Embedder
	// EmbedTokens embeds one pre-tokenized query. tokens must come from
	// TokenizeForEmbedding on the query text; the slice is read, not
	// retained.
	EmbedTokens(tokens []string) vec.Vector
	// EmbedTokensBatch embeds a batch of pre-tokenized queries, deduping
	// identical sequences before inference. One vector per input,
	// index-aligned; duplicated inputs may share a backing vector, so
	// callers treat returned vectors as immutable.
	EmbedTokensBatch(docs [][]string) []vec.Vector
}

// Labeler maps a query vector to a label value. Implementations must be safe
// for concurrent use and must not mutate the vector: on the embedding-plane
// path one vector is fanned out to every labeler sharing the embedder, and
// may be served again from the shared vector cache.
type Labeler interface {
	Label(v vec.Vector) string
	Name() string
}

// TrainableLabeler is a Labeler that can be (re)fit from examples by the
// training module.
type TrainableLabeler interface {
	Labeler
	Fit(X []vec.Vector, y []string) error
}

// Classifier is the deployable unit of Fig. 1: one (embedder, labeler) pair
// that writes its prediction under LabelKey.
type Classifier struct {
	LabelKey string
	Embedder Embedder
	Labeler  Labeler
}

// Process annotates q with this classifier's prediction and returns it.
// This is the standalone embed+label path; the Qworker runtime instead embeds
// once per distinct embedder and calls LabelVector per classifier.
func (c *Classifier) Process(q *LabeledQuery) string {
	return c.LabelVector(q, c.Embedder.Embed(q.SQL))
}

// LabelVector annotates q from a precomputed vector of q.SQL — the label
// phase of the embedding plane. v must have been produced by c.Embedder (or
// an embedder with the same Name) on q.SQL; it is read, never mutated.
func (c *Classifier) LabelVector(q *LabeledQuery, v vec.Vector) string {
	label := c.Labeler.Label(v)
	q.SetLabel(c.LabelKey, label)
	return label
}

// String describes the pair, e.g. "route=forest(cluster)∘lstm(snowflake)".
func (c *Classifier) String() string {
	return fmt.Sprintf("%s=%s∘%s", c.LabelKey, c.Labeler.Name(), c.Embedder.Name())
}
