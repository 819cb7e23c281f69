package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the host-time groups the traced run reports, in output
// order. Each simulator layer is one package; auth also takes crypto/*.
var cpuBuckets = []string{"sim", "netsim", "core", "raid", "disk", "san", "auth", "runtime_sched", "runtime_gc", "other"}

// layerPackages maps the repository's layer packages onto their bucket.
var layerPackages = map[string]string{
	"gfs/internal/sim":    "sim",
	"gfs/internal/netsim": "netsim",
	"gfs/internal/core":   "core",
	"gfs/internal/raid":   "raid",
	"gfs/internal/disk":   "disk",
	"gfs/internal/san":    "san",
	"gfs/internal/auth":   "auth",
}

// runtimeSched lists runtime functions that hand control between
// goroutines: every simulated process is a goroutine, so channel
// hand-off, parking and the scheduler are the process layer's host cost.
var runtimeSched = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "send", "recv",
	"gopark", "park_m", "goready", "ready", "gogo", "mcall", "goexit",
	"schedule", "findRunnable", "execute", "stealWork", "runqget", "runqput", "runqgrab", "globrunq",
	"futex", "notesleep", "notewakeup", "stopm", "startm", "wakep", "handoffp", "acquirep", "releasep",
	"casgstatus", "usleep", "osyield", "procyield", "resetspinning", "checkTimers", "netpoll",
	"lock2", "unlock2", "newproc", "gfget", "gfput", "malg",
}

// runtimeGC lists the collector and the allocator paths it paces.
var runtimeGC = []string{
	"gc", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "findObject", "markroot",
	"markBits", "heapBits", "heapSetType", "typePointers", "sweep", "bgsweep", "bgscavenge",
	"wbBuf", "bulkBarrier", "mallocgc", "nextFreeFast", "memclrNoHeapPointers",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)", "(*gcBits)", "(*pageAlloc)",
}

// packageOf returns the import path of a symbol such as
// "gfs/internal/netsim.(*Network).solveClosure" or "runtime.chansend1":
// everything up to the first dot after the last slash. Type arguments of
// a generic instantiation may name other packages, so they are cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf maps a profiled function name to its cpuBuckets entry. A name
// given without the module prefix ("netsim.(*Network).solveClosure")
// resolves as if it carried it.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	if b, ok := layerPackages[pkg]; ok {
		return b
	}
	if b, ok := layerPackages["gfs/internal/"+pkg]; ok && !strings.Contains(pkg, "/") {
		return b
	}
	if pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") || pkg == "math/big" {
		// Only cluster keys (RSA keygen, handshake signatures) use them.
		return "auth"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || pkg == "internal/runtime/atomic" {
		name := strings.TrimPrefix(fn, pkg+".")
		for _, p := range runtimeGC {
			if strings.HasPrefix(name, p) {
				return "runtime_gc"
			}
		}
		for _, p := range runtimeSched {
			if strings.HasPrefix(name, p) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// selfTimeByBucket decodes a gzipped pprof CPU profile and sums each
// sample's CPU time onto the bucket of its innermost frame (self time).
func selfTimeByBucket(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds (samples/count comes first)
		name := p.strings[p.funcName[p.leafFunc[s.locs[0]]]]
		out[bucketOf(name)] += v
	}
	return out, nil
}

// profile is the subset of the pprof protobuf (profile.proto) needed for
// self time: samples, each location's innermost function, and names.
type profile struct {
	samples  []sample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case sampleLocationID:
					return appendVarints(&s.locs, w, v, d)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			first := true
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					if !first {
						return nil // later lines are callers the first was inlined into
					}
					first = false
					return eachField(d, func(n, w int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		for _, l := range s.locs {
			if idx := p.funcName[p.leafFunc[l]]; idx < 0 || idx >= int64(len(p.strings)) {
				return nil, errors.New("profile: function name out of range")
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its integer value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 if short).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
