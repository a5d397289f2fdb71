(** The service transport: one address abstraction over Unix-domain
    sockets and TCP, used by every socket-touching layer — {!Server},
    {!Client}, {!Drill}, {!Loadgen} and the CLI.

    An address is either a filesystem socket path ({!Unix_socket}, the
    single-host default: no ports, no firewalls, kernel-enforced
    permissions) or a [host:port] endpoint ({!Tcp}, the deployment
    setting for clients or a load generator that reach the server over
    loopback or a real network).  The
    wire protocol above the transport — line-delimited JSON, one reply
    per request — is byte-identical on both; the TCP parity test in
    [suite_service] pins that the {e same request} yields the {e
    byte-identical reply} over either transport.

    {b Ephemeral ports.}  A {!Tcp} address with port [0] asks the kernel
    for a free port at {!listen} time; the resolved address (with the
    real port) is returned by {!listen} and handed to
    {!Server.serve}'s [?ready] callback, so tests and drills can bind
    race-free without guessing ports.

    {b Latency.}  TCP connections get [TCP_NODELAY] ({!configure}): the
    protocol is request/response with sub-millisecond computations, and
    Nagle-delaying a 200-byte reply behind a 40 ms timer would dominate
    every loadgen percentile. *)

type t =
  | Unix_socket of string  (** a filesystem socket path. *)
  | Tcp of { host : string; port : int }
      (** [host] is a numeric address or a resolvable name; [port] 0
          means "kernel-assigned" (resolved at {!listen}). *)

val of_string : string -> (t, string) result
(** Parse a CLI address argument:
    - ["tcp:HOST:PORT"] / ["tcp:[HOST]:PORT"] — explicitly TCP; the
      bracketed form is required when [HOST] itself contains [':'] (an
      IPv6 literal such as [::1]) — an unbracketed multi-colon remainder
      is an error, never a guess;
    - ["unix:PATH"] — explicitly a socket path (any [PATH], including
      ones containing [:digits]);
    - ["[HOST]:PORT"] — TCP with a bracketed (typically IPv6) host;
    - ["HOST:PORT"] (exactly one [':'], non-empty slash-free host,
      all-digit port) — TCP;
    - anything else — a Unix socket path.  In particular ["::1"] (no
      host before the colon), ["host:"] (trailing colon), ["a:b:1"]
      (two colons, unbracketed, no prefix) and ["/tmp/x.sock:8080"]
      (hostnames never contain ['/']) are socket paths: a path is the
      only reading that cannot silently drop information.

    [Error] on a malformed or out-of-range port, on a bare ["tcp:"] /
    ["unix:"] with an empty remainder, and on ambiguous or malformed
    bracketed forms.  The qcheck round-trip properties in
    [suite_service] pin [of_string (to_string t) = Ok t]. *)

val to_string : t -> string
(** The parseable rendering: the bare path for {!Unix_socket},
    [host:port] (or [\[host\]:port] for a colon-bearing host) for
    {!Tcp}.  When the plain form would parse back as something else — a
    socket path that itself looks like [host:port] or starts with a
    reserved prefix, a TCP host literally named ["unix"] — the explicit
    ["unix:"] / ["tcp:"] prefixed form is emitted instead, keeping
    [of_string (to_string t) = Ok t] by construction. *)

val pp : Format.formatter -> t -> unit

val listen : ?backlog:int -> t -> Unix.file_descr * t
(** Bind and listen ([backlog] defaults to 64).  For {!Unix_socket} an
    existing socket file is replaced.  For {!Tcp} the socket gets
    [SO_REUSEADDR] (a supervised restart must rebind the port
    immediately) and the returned transport carries the {e resolved}
    port — identical to the input unless the input port was 0.  Raises
    [Unix.Unix_error] on bind failure and [Failure] on an unresolvable
    host. *)

val connect : t -> (Unix.file_descr, string) result
(** Dial the address; the returned fd is connected and {!configure}d.
    All failures (unresolvable host, refused connection) come back as
    [Error reason], never as an exception. *)

val configure : t -> Unix.file_descr -> unit
(** Per-connection socket options for an {e accepted or connected} fd:
    [TCP_NODELAY] for {!Tcp}, nothing for {!Unix_socket}.  The server
    applies this to every accepted connection. *)

val cleanup : t -> unit
(** Remove the socket file of a {!Unix_socket} if it exists; a no-op for
    {!Tcp}.  Safe to call twice. *)
