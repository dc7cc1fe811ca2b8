(** CSV emission of every experimental data series, for external
    plotting and regeneration of the paper's tables. *)

val write_all : ?ns:int list -> dir:string -> unit -> string list
(** All series under [dir]; returns the paths written. *)
