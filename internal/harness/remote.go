package harness

import (
	"ldplfs/internal/mpiio"
	"ldplfs/internal/plfs"
	"ldplfs/internal/posix"
	"ldplfs/internal/service/client"
)

// RemoteDialer is what RankDriver needs from the -remote flag group
// (satisfied by flags.Remote); a nil or disabled dialer selects the
// local in-process path.
type RemoteDialer interface {
	Enabled() bool
	Dial() (*client.Conn, error)
}

// RankDriver builds one rank's ADIO driver: the ufs driver over a
// gateway connection's posix.FS view when remote mode is on (each rank dials
// its own connection — one session, one PLFS pid), otherwise the local
// method over fs. The path function addresses the PLFS mount either way,
// so kernels are oblivious to where the containers live.
func RankDriver(rd RemoteDialer, method string, fs posix.FS, rank int, opts ...plfs.Option) (mpiio.Driver, func(name string) string, error) {
	if rd != nil && rd.Enabled() {
		conn, err := rd.Dial()
		if err != nil {
			return nil, nil, err
		}
		return mpiio.NewUFS(conn.FS()),
			func(name string) string { return MountPoint + "/" + name }, nil
	}
	return DriverFor(method, fs, rank, opts...)
}
