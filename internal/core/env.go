package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Environment variables understood by ConfigFromEnv, mirroring how the
// real LDPLFS is driven entirely from the environment ("requires only a
// simple environment variable to be exported").
const (
	// EnvMounts lists mount mappings: "point=backend[,point=backend...]".
	EnvMounts = "LDPLFS_MNT"
	// EnvPid overrides the writer id (defaults to the process pid, exactly
	// as the paper passes getpid()).
	EnvPid = "LDPLFS_PID"
)

// ParseMounts parses the EnvMounts syntax.
func ParseMounts(spec string) ([]Mount, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("ldplfs: empty %s", EnvMounts)
	}
	var mounts []Mount
	for _, part := range strings.Split(spec, ",") {
		point, backend, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || point == "" || backend == "" {
			return nil, fmt.Errorf("ldplfs: bad mount spec %q (want point=backend)", part)
		}
		mounts = append(mounts, NewMount(point, backend))
	}
	return mounts, nil
}

// ConfigFromEnv builds a Config from the environment.
func ConfigFromEnv(getenv func(string) string) (Config, error) {
	if getenv == nil {
		getenv = os.Getenv
	}
	mounts, err := ParseMounts(getenv(EnvMounts))
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Mounts: mounts, Pid: uint32(os.Getpid())}
	if v := getenv(EnvPid); v != "" {
		pid, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return Config{}, fmt.Errorf("ldplfs: bad %s: %w", EnvPid, err)
		}
		cfg.Pid = uint32(pid)
	}
	return cfg, nil
}
