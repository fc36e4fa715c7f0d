package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"pornweb/internal/provenance"
)

// Segment layout. A segment is a header followed by zero or more
// records in the record codec's framing (record.go):
//
//	header:  magic [8]byte "PWSTORE\x01"
//	         version u32
//	         seed    u64 (two's complement of the int64 seed)
//	         fpLen   u16
//	         fp      [fpLen]byte config fingerprint
//	record:  length u32 | crc u32 | keyLen u16 | key | value
//
// All integers are big-endian.
const (
	segMagic   = "PWSTORE\x01"
	segVersion = 1
)

// segment is one open segment file. The last segment of a log is
// active (appendable, has a writer); earlier segments are sealed and
// serve only reads.
type segment struct {
	path string
	file *os.File
	w    *bufio.Writer // nil once sealed
	size int64         // logical size including buffered bytes
	// scratch is reused to frame each appended record.
	scratch []byte
}

// headerSize returns the encoded header length for the options' fingerprint.
func headerSize(opts Options) int64 {
	return int64(len(segMagic) + 4 + 8 + 2 + len(opts.Fingerprint))
}

// encodeHeader renders the segment header for opts.
func encodeHeader(opts Options) []byte {
	fp := []byte(opts.Fingerprint)
	buf := make([]byte, 0, headerSize(opts))
	buf = append(buf, segMagic...)
	buf = binary.BigEndian.AppendUint32(buf, segVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(opts.Seed))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(fp)))
	buf = append(buf, fp...)
	return buf
}

// createSegment creates a fresh segment file with a synced header so
// the directory's identity survives a crash before the first batch
// sync.
func createSegment(path string, opts Options) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	hdr := encodeHeader(opts)
	if _, err := f.Write(hdr); err != nil {
		closeIgnore(f)
		return nil, fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		closeIgnore(f)
		return nil, fmt.Errorf("store: sync segment header: %w", err)
	}
	return &segment{
		path: path,
		file: f,
		w:    bufio.NewWriterSize(f, 1<<16),
		size: int64(len(hdr)),
	}, nil
}

// openSegment opens an existing segment for replay, verifying the
// header's magic, version, seed, and fingerprint against opts.
func openSegment(path string, opts Options) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	hdr := make([]byte, headerSize(opts))
	if _, err := io.ReadFull(f, hdr); err != nil {
		closeIgnore(f)
		return nil, fmt.Errorf("store: %s: short header: %w", path, ErrCorrupt)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		closeIgnore(f)
		return nil, fmt.Errorf("store: %s: bad magic: %w", path, ErrCorrupt)
	}
	rest := hdr[len(segMagic):]
	version := binary.BigEndian.Uint32(rest[:4])
	seed := int64(binary.BigEndian.Uint64(rest[4:12]))
	fpLen := int(binary.BigEndian.Uint16(rest[12:14]))
	if version != segVersion {
		closeIgnore(f)
		return nil, fmt.Errorf("store: %s: segment version %d, want %d: %w", path, version, segVersion, ErrCorrupt)
	}
	if fpLen != len(opts.Fingerprint) || string(rest[14:14+len(opts.Fingerprint)]) != opts.Fingerprint || seed != opts.Seed {
		// A different-length fingerprint makes the header bytes ambiguous
		// with record framing, but that cannot make a valid store pass: the
		// fpLen check fires before any record parsing.
		closeIgnore(f)
		return nil, fmt.Errorf("store: %s: %w", path, ErrFingerprintMismatch)
	}
	return &segment{path: path, file: f, size: int64(len(hdr))}, nil
}

// recordSum hashes one record for the store digest: key, separator,
// value, in place.
func recordSum(key string, value []byte) uint64 {
	return provenance.NewHasher().AddString(key).AddString(keySep).AddBytes(value).Sum64()
}

// replay scans every record after the header, calling fn for each
// valid one. On the final segment (last=true) an incomplete or
// CRC-failing record marks the torn tail: the file is truncated to the
// last valid byte and the segment becomes active (appendable). The
// same damage in an earlier segment is ErrCorrupt — those were sealed
// and fully synced, so a bad record there is real corruption, not a
// crash artifact. Each record is read into one reused buffer; fn's
// loc leaves seg for the caller to fill in.
func (s *segment) replay(last bool, fn func(key string, loc entryLoc)) (entries int, truncated bool, err error) {
	info, err := s.file.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("store: replay stat: %w", err)
	}
	if _, err := s.file.Seek(s.size, io.SeekStart); err != nil {
		return 0, false, fmt.Errorf("store: replay seek: %w", err)
	}
	r := bufio.NewReaderSize(s.file, 1<<16)
	off := s.size
	buf := make([]byte, recHeaderSize, 1<<12)
	for {
		if _, err := io.ReadFull(r, buf[:recHeaderSize]); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end
			}
			// Partial record header: torn tail.
			return s.finishReplay(last, off, entries)
		}
		n, err := recordSize(buf)
		if err != nil || off+int64(n) > info.Size() {
			// A corrupt length must not size the buffer past the file.
			return s.finishReplay(last, off, entries)
		}
		buf = slices.Grow(buf[:recHeaderSize], n-recHeaderSize)[:n]
		if _, err := io.ReadFull(r, buf[recHeaderSize:]); err != nil {
			return s.finishReplay(last, off, entries)
		}
		kb, value, _, err := ParseRecord(buf)
		if err != nil {
			return s.finishReplay(last, off, entries)
		}
		key := string(kb)
		fn(key, entryLoc{
			off:  off + int64(n-len(value)),
			size: len(value),
			sum:  recordSum(key, value),
		})
		entries++
		off += int64(n)
		buf = buf[:recHeaderSize]
	}
	s.size = off
	if last {
		s.activate()
	}
	return entries, false, nil
}

// finishReplay handles a bad record at offset off: truncate-and-resume
// on the final segment, typed corruption otherwise.
func (s *segment) finishReplay(last bool, off int64, entries int) (int, bool, error) {
	if !last {
		return entries, false, fmt.Errorf("store: %s: bad record at offset %d in sealed segment: %w", s.path, off, ErrCorrupt)
	}
	if err := s.file.Truncate(off); err != nil {
		return entries, false, fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if err := s.file.Sync(); err != nil {
		return entries, false, fmt.Errorf("store: sync truncation: %w", err)
	}
	s.size = off
	s.activate()
	return entries, true, nil
}

// activate positions the file at the logical end and attaches the
// append writer.
func (s *segment) activate() {
	// Seek is infallible here: the offset was just validated by replay.
	if _, err := s.file.Seek(s.size, io.SeekStart); err == nil {
		s.w = bufio.NewWriterSize(s.file, 1<<16)
	}
}

// append frames one record into the segment's scratch buffer and
// buffers it, returning where its value bytes will live (seg unset).
func (s *segment) append(key string, value []byte) (entryLoc, error) {
	if s.w == nil {
		return entryLoc{}, fmt.Errorf("store: append to sealed segment %s", s.path)
	}
	if len(key) > MaxKeySize {
		return entryLoc{}, fmt.Errorf("store: key too large (%d bytes)", len(key))
	}
	s.scratch = AppendRecord(s.scratch[:0], key, value)
	if _, err := s.w.Write(s.scratch); err != nil {
		return entryLoc{}, fmt.Errorf("store: append: %w", err)
	}
	loc := entryLoc{
		off:  s.size + RecordOverhead + int64(len(key)),
		size: len(value),
		sum:  recordSum(key, value),
	}
	s.size += int64(len(s.scratch))
	return loc, nil
}

// writeTorn plants a deliberately torn record — the full frame header
// but only half the payload — and syncs it, simulating a power cut
// mid-write. Errors are ignored: this only runs on the crash-injection
// path, where the process is about to die anyway.
func (s *segment) writeTorn(key string, value []byte) {
	if s.w == nil {
		return
	}
	rec := AppendRecord(nil, key, value)
	_, _ = s.w.Write(rec[:recHeaderSize+(len(rec)-recHeaderSize)/2])
	_ = s.w.Flush()
	_ = s.file.Sync()
}

// flush pushes buffered appends to the OS (no fsync). Nil-safe for
// sealed segments.
func (s *segment) flush() error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// flushAndSync makes every buffered append durable.
func (s *segment) flushAndSync() error {
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// readValue reads one value back from the file.
func (s *segment) readValue(off int64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := s.file.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", s.path, off, err)
	}
	return buf, nil
}

// close releases the file handle. The caller syncs first if the data
// must be durable.
func (s *segment) close() {
	closeIgnore(s.file)
}

// closeIgnore closes f on paths where the close error has nowhere to
// go (error unwinding, final teardown after an explicit sync).
func closeIgnore(f *os.File) {
	_ = f.Close() // unwind/teardown path; durability comes from the preceding Sync
}
