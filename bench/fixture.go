package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"querc/internal/snowgen"
)

const (
	appName   = "bench"
	modelName = "bench"
	// requestTimeout bounds every HTTP call the harness makes.
	requestTimeout = 20 * time.Second
	// startTimeout bounds the wait for quercd's "listening on" line.
	startTimeout = 15 * time.Second
)

// labelKeys are the three classifiers the fixture deploys, all on the one
// shared embedder.
var labelKeys = []string{"account", "user", "cluster"}

// env locates the checkout and the harness's build and scratch directories.
type env struct {
	root string // checkout root (holds cmd/quercd)
	bin  string // built quercd and querctrain
	tmp  string // per-process scratch, removed on exit

	mu    sync.Mutex
	procs map[*os.Process]bool // started and not yet reaped: killed by cleanup
}

// newEnv finds the checkout root (root, else "." or "..") and creates the
// build and scratch directories under <root>/.bench_build.
func newEnv(root string) (*env, error) {
	if root == "" {
		for _, cand := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(cand, "cmd", "quercd")); err == nil {
				root = cand
				break
			}
		}
		if root == "" {
			return nil, errors.New("not inside a querc checkout (cmd/quercd not found in . or ..); pass -root")
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), procs: make(map[*os.Process]bool)}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// track registers a started child so that cleanup kills it on an abnormal
// exit; untrack is called once the child has been reaped.
func (e *env) track(p *os.Process) {
	e.mu.Lock()
	e.procs[p] = true
	e.mu.Unlock()
}

func (e *env) untrack(p *os.Process) {
	e.mu.Lock()
	delete(e.procs, p)
	e.mu.Unlock()
}

// cleanup kills every child still running and removes the scratch
// directory. Every exit path of main goes through it.
func (e *env) cleanup() {
	e.mu.Lock()
	for p := range e.procs {
		_ = p.Kill() // already exited is fine
	}
	e.mu.Unlock()
	os.RemoveAll(e.tmp)
}

// build compiles quercd and querctrain from the checkout. Compile time is
// not part of any metric.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/quercd", "./cmd/querctrain")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build quercd querctrain: %w\n%s", err, out)
	}
	return nil
}

// daemon is one running quercd with its models directory.
type daemon struct {
	e      *env
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	models string
	client *http.Client

	mu     sync.Mutex
	logs   bytes.Buffer  // everything quercd logged, for the shutdown assertion
	done   chan struct{} // closed when quercd's stderr ends, i.e. it exited
	reaped bool          // cmd.Wait has returned
}

var listenRE = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// trainModel runs querctrain on the corpus into a fresh registry directory
// and returns it.
func trainModel(e *env, corpus []snowgen.Query) (models string, err error) {
	dir, err := os.MkdirTemp(e.tmp, "fixture-")
	if err != nil {
		return "", err
	}
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for i := range corpus {
		if err := enc.Encode(&corpus[i]); err != nil {
			return "", err
		}
	}
	models = filepath.Join(dir, "models")
	train := exec.Command(filepath.Join(e.bin, "querctrain"),
		"-model", modelName, "-method", "doc2vec", "-dim", "32", "-epochs", "3", "-workers", "1", "-models", models)
	train.Stdin = &jsonl
	if out, err := train.CombinedOutput(); err != nil {
		return "", fmt.Errorf("querctrain: %w\n%s", err, out)
	}
	return models, nil
}

// startFixture brings up the daemon fixture shared by the socket workloads:
// querctrain on the corpus, quercd with default flags on an ephemeral port,
// ground-truth logs ingested, and the three classifiers retrained. The
// caller owns the returned daemon and must stop or kill it.
func startFixture(e *env, corpus []snowgen.Query, conns int) (*daemon, error) {
	models, err := trainModel(e, corpus)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		e:      e,
		models: models,
		done:   make(chan struct{}),
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConns: conns + 2, MaxIdleConnsPerHost: conns + 2},
		},
	}
	d.cmd = exec.Command(filepath.Join(e.bin, "quercd"), "-addr", "127.0.0.1:0", "-models", models, "-app", appName)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start quercd: %w", err)
	}
	e.track(d.cmd.Process)
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line)
			d.logs.WriteByte('\n')
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.kill()
		return nil, fmt.Errorf("quercd exited before listening:\n%s", d.logText())
	case <-time.After(startTimeout):
		d.kill()
		return nil, fmt.Errorf("quercd did not log a listen address within %s", startTimeout)
	}

	if err := d.ingestAndRetrain(corpus); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// ingestAndRetrain posts the ground-truth log and deploys one forest
// classifier per label key.
func (d *daemon) ingestAndRetrain(corpus []snowgen.Query) error {
	type logged struct {
		SQL    string            `json:"sql"`
		Labels map[string]string `json:"labels"`
	}
	logs := make([]logged, len(corpus))
	for i, q := range corpus {
		logs[i] = logged{SQL: q.SQL, Labels: map[string]string{"account": q.Account, "user": q.User, "cluster": q.Cluster}}
	}
	body, err := json.Marshal(logs)
	if err != nil {
		return err
	}
	if _, err := d.post("/v1/apps/"+appName+"/logs", body); err != nil {
		return err
	}
	for _, key := range labelKeys {
		req := fmt.Sprintf(`{"label":%q,"embedder":%q}`, key, modelName)
		if _, err := d.post("/v1/apps/"+appName+"/retrain", []byte(req)); err != nil {
			return err
		}
	}
	return nil
}

// call makes one request (a JSON body when body is non-nil) and returns the
// 200 response body.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (d *daemon) post(path string, body []byte) ([]byte, error) {
	return d.call(http.MethodPost, path, body)
}

func (d *daemon) get(path string) ([]byte, error) { return d.call(http.MethodGet, path, nil) }

// stop asks quercd to shut down gracefully and asserts it logged
// "shutdown complete"; the process is killed if it does not exit in time.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal quercd: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	select {
	case <-d.done:
	case <-ctx.Done():
		d.kill()
		return errors.New("quercd did not exit after SIGTERM")
	}
	err := d.cmd.Wait()
	d.reaped = true
	d.e.untrack(d.cmd.Process)
	if !strings.Contains(d.logText(), "shutdown complete") {
		return fmt.Errorf("quercd exited without logging \"shutdown complete\" (exit: %w):\n%s", err, d.logText())
	}
	return err
}

// kill ends the daemon on an error path and waits for it. It does nothing
// after a stop or an earlier kill.
func (d *daemon) kill() {
	if d.reaped {
		return
	}
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
	_ = d.cmd.Wait() // the kill is the reported outcome
	d.reaped = true
	d.e.untrack(d.cmd.Process)
}
