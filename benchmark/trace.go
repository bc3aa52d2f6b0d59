package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lethe/internal/vfs"
)

// spanName identifies what a span timed. The first numOpKinds values are the
// operation kinds, so an operation's span is named after its kind.
type spanName uint8

const (
	spanIterOpen spanName = spanName(numOpKinds) + iota
	spanIterNext
	spanIterClose
	spanSnapOpen
	spanSnapGet
	spanSnapRelease
	spanFSCreate
	spanFSOpen
	spanFSReadAt
	spanFSWrite
	spanFSSync
	spanFSRemove
	spanFSRename
	numSpanNames
)

var spanNames = func() [numSpanNames]string {
	var n [numSpanNames]string
	copy(n[:], opKindNames[:])
	for k, v := range map[spanName]string{
		spanIterOpen: "iter.open", spanIterNext: "iter.next", spanIterClose: "iter.close",
		spanSnapOpen: "snapshot.open", spanSnapGet: "snapshot.get", spanSnapRelease: "snapshot.release",
		spanFSCreate: "vfs.create", spanFSOpen: "vfs.open", spanFSReadAt: "vfs.readat",
		spanFSWrite: "vfs.write", spanFSSync: "vfs.sync", spanFSRemove: "vfs.remove",
		spanFSRename: "vfs.rename",
	} {
		n[k] = v
	}
	return n
}()

func (n spanName) isFS() bool { return n >= spanFSCreate && n <= spanFSRename }

// fileClass says which kind of engine file a filesystem span touched.
type fileClass uint8

const (
	fileNone fileClass = iota
	fileWAL
	fileSST
	fileManifest
	fileOther
)

var fileClassNames = [...]string{"", "wal", "sst", "manifest", "other"}

func classifyFile(name string) fileClass {
	base := name[strings.LastIndexByte(name, '/')+1:]
	switch {
	case strings.HasSuffix(base, ".sst"):
		return fileSST
	case strings.HasSuffix(base, ".wal"):
		return fileWAL
	case strings.HasPrefix(base, "MANIFEST"), strings.HasPrefix(base, "SHARDS"), strings.HasPrefix(base, "RESHARD"):
		return fileManifest
	}
	return fileOther
}

// span is one timed interval; times are nanoseconds since the phase began.
type span struct {
	start, end int64
	op         int32 // index of the client operation it belongs to; -1 = not known yet
	name       spanName
	file       fileClass
	remote     bool
	isOp       bool // the span of a whole client operation
}

// tracer keeps the spans of the traced run in memory until it ends. Spans
// come from two boundaries only, both in this directory: the client loop
// around its engine calls, and traceFS under the engine.
type tracer struct {
	mu      sync.Mutex
	start   time.Time
	enabled bool
	spans   []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<20)} }

// begin starts recording; set-up traffic before it is not kept.
func (t *tracer) begin(start time.Time) {
	t.mu.Lock()
	t.start, t.enabled = start, true
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if t.enabled {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) stop() {
	t.mu.Lock()
	t.enabled = false
	t.mu.Unlock()
}

// fsSpan records a filesystem call that began at t0.
func (t *tracer) fsSpan(name spanName, file fileClass, remote bool, t0 time.Time) {
	end := time.Now()
	t.mu.Lock()
	if t.enabled {
		t.spans = append(t.spans, span{start: int64(t0.Sub(t.start)), end: int64(end.Sub(t.start)),
			op: -1, name: name, file: file, remote: remote})
	}
	t.mu.Unlock()
}

func (t *tracer) wrap(fs vfs.FS, remote bool) vfs.FS {
	return &traceFS{inner: fs, tr: t, remote: remote}
}

// opStats is what the trace says about one operation kind.
type opStats struct {
	count       int
	total       time.Duration // summed operation time
	storage     time.Duration // part of it covered by filesystem spans
	reads       int           // ReadAt calls inside the operations, either tier
	remoteReads int           // those that went to the remote tier
}

// traceSummary is the traced run, resolved.
type traceSummary struct {
	ops         [numOpKinds]opStats
	maintenance time.Duration // filesystem time outside any client operation
	spans       int
}

// resolve parents the filesystem spans and computes self times. The traced
// run has one client, so its operation spans do not overlap: a filesystem
// span lying wholly inside one is that operation's child, and any other
// belongs to the synthetic maintenance span. A background read that happens
// to fall inside an operation is charged to it; README.md bounds that error.
func (t *tracer) resolve() traceSummary {
	t.stop()
	var opSpans []span
	for _, s := range t.spans {
		if s.isOp {
			opSpans = append(opSpans, s)
		}
	}
	sort.Slice(opSpans, func(i, j int) bool { return opSpans[i].start < opSpans[j].start })
	var sum traceSummary
	sum.spans = len(t.spans) + 1
	covered := make([]int64, len(opSpans))
	reads := make([][2]int, len(opSpans))
	for i := range t.spans {
		s := &t.spans[i]
		if !s.name.isFS() {
			continue
		}
		j := sort.Search(len(opSpans), func(j int) bool { return opSpans[j].start > s.start }) - 1
		if j >= 0 && s.end <= opSpans[j].end {
			s.op = opSpans[j].op
			covered[j] += s.end - s.start
			if s.name == spanFSReadAt {
				reads[j][0]++
				if s.remote {
					reads[j][1]++
				}
			}
		} else {
			sum.maintenance += time.Duration(s.end - s.start)
		}
	}
	for j, o := range opSpans {
		st := &sum.ops[o.name]
		d := o.end - o.start
		if covered[j] > d {
			covered[j] = d
		}
		st.count++
		st.total += time.Duration(d)
		st.storage += time.Duration(covered[j])
		st.reads += reads[j][0]
		st.remoteReads += reads[j][1]
	}
	return sum
}

// write stores the spans as JSON lines: id, parent, op, name, start_ns,
// end_ns, and for filesystem spans the file class and tier. Span 1 is the
// synthetic maintenance span covering the whole phase; an operation's span
// has parent 0.
func (t *tracer) write(path string, wall time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"id":1,"parent":0,"op":-1,"name":"maintenance","start_ns":0,"end_ns":%d}`+"\n", int64(wall))
	opID := map[int32]int{}
	for i, s := range t.spans {
		if s.isOp {
			opID[s.op] = i + 2
		}
	}
	for i, s := range t.spans {
		parent := 1
		switch {
		case s.isOp:
			parent = 0
		case s.op >= 0:
			parent = opID[s.op]
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d`,
			i+2, parent, s.op, spanNames[s.name], s.start, s.end)
		if s.name.isFS() {
			tier := "local"
			if s.remote {
				tier = "remote"
			}
			fmt.Fprintf(w, `,"file":%q,"tier":%q`, fileClassNames[s.file], tier)
		}
		w.WriteString("}\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
