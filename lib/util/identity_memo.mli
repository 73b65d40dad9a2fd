(** Two-entry domain-local memo keyed by physical identity.

    Derived forms of immutable values (a compiled image, the
    timing facts of one) are pure data, and the pipelines ask for the
    same few keys over and over: an original image and its rewrite
    alternate through every Figure 10 measurement.  Keeping the two most
    recent keys serves that alternation without rebuilding, and keeps
    memory bounded.  Each domain has its own entries, so no locking. *)

type ('k, 'v) t

val create : ?same:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** [same] decides whether two keys are the same; it defaults to
    physical equality ([==]).  A composite key compares its parts with
    [==]. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** The value memoized on this domain for a key [same] as [key], or
    [compute key], which then replaces the older of the two entries. *)
