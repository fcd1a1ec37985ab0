package main

// The run stamp: what a number was measured on. It goes to standard
// output above the result line, so a figure copied out of a log keeps
// its environment.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func stamp(cfg *config) []string {
	return []string{
		fmt.Sprintf("env go=%s os=%s/%s gomaxprocs=%d nproc=%d cpu=%q",
			runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()),
		fmt.Sprintf("env rev=%s journal_fs=%s config=%s", revision(cfg.repo), fsType(cfg.work), configHash(cfg)),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the git commit of the checkout, or, where the checkout is
// not a repository, a digest of its Go sources and module files.
func revision(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	git := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	// Only the checkout itself may answer, not a repository around it.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	if out, err := git.Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(strings.TrimPrefix(path, root)))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, where the daemon's journal
// lives; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// configHash digests every setting that shapes a run's load, so two
// logs with equal hashes measured the same thing.
func configHash(cfg *config) string {
	h := sha256.New()
	fmt.Fprintf(h, "workload=%s seconds=%d trace=%v clients=%d poll=%v setups=%d segments=%d ring=%d drain=%v\n",
		cfg.workload, cfg.seconds, cfg.trace, clients, pollInterval, setupRepeats, segments, eventRing, drainEvery)
	fmt.Fprintf(h, "ops=%d place=%d/%g/%d hot=%d/%g/%d/%d stream=%d/%g/%d/%d/%d suite=%g/%d/%d\n",
		minOps, placeRate, placeLimitMS, placeIterations, hotRate, hotLimitMS, hotSetSize, hotSetSeed,
		streamRate, streamLimitMS, streamItems, streamAppends, streamBatch,
		suiteLimitS, suiteSetups, shortRepeats)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
