package main

import (
	"os"

	"repro/internal/store"
)

// timedFS is the store.FS the campaign hands to store.OpenFS and
// journal.OpenFS. It passes every call to the real filesystem; while
// the tracer is on it records one span per read and per fsync and
// counts the bytes written, under the layer's name.
type timedFS struct {
	store.FS
	layer string // "store" or "journal"
	t     *tracer
}

func newTimedFS(layer string, t *tracer) timedFS {
	return timedFS{FS: store.OS(), layer: layer, t: t}
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	s := f.t.beginAmbient(f.layer + ".ReadFile")
	data, err := f.FS.ReadFile(name)
	f.t.end(s, int64(len(data)), "")
	return data, err
}

func (f timedFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f}, nil
}

func (f timedFS) OpenAppend(path string, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{file, f}, nil
}

type timedFile struct {
	store.File
	fs timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.t.add(f.fs.layer+".write_bytes", float64(n))
	return n, err
}

func (f timedFile) Sync() error {
	s := f.fs.t.beginAmbient(f.fs.layer + ".Sync")
	err := f.File.Sync()
	f.fs.t.end(s, 0, "")
	return err
}
