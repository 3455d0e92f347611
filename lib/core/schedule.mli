(** Replayable schedules — the common substrate of the adversary and the
    explicit schedule-table checker.

    A schedule is a sequence of {e directives} (the paper's schedule: a
    sequence over [{p, p̂}], enriched with "run to completion" macro
    steps), paired with {e records} of what each directive observed when
    first executed. Replaying a schedule — possibly with some processes
    filtered out — re-executes the directives and {e asserts} that every
    kept step observes exactly what it originally observed. A successful
    filtered replay is the executable witness of invariants (I3)/(I5):
    removing the filtered processes did not affect anyone kept. *)

type context = {
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  factory : Rme_sim.Lock_intf.factory;
}

type directive =
  | D_local of int
      (** Run the process to its next RMR-incurring step (setup phase). *)
  | D_step of { pid : int; hidden_as : int list }
      (** One shared-memory step. A non-empty [hidden_as] marks a step
          whose effect is officially attributed to those (about to crash
          and finish) processes — the Process-Hiding switch. *)
  | D_crash of int
  | D_complete of int  (** Run to super-passage completion. *)

type record =
  | R_local of int  (** local steps taken *)
  | R_step of { loc : int; old_value : int }
  | R_crash
  | R_complete of int  (** steps taken *)

val pid_of_directive : directive -> int

exception Diverged of string
(** Raised when a replay observes something different from the record —
    a violation of the construction's invariants. *)

(** A play: a machine plus the visibility map. [visible] tracks, per
    location, the processes whose effect on its value an observer could
    still learn about. *)
type play = {
  m : Machine.t;
  visible : (int, Rme_util.Intset.t) Hashtbl.t;
  mutable checked : int;  (** record assertions verified *)
}

val fresh_play : ?trace:Rme_sim.Trace.t -> context -> play
(** A play on a new machine; [trace], if given, records every step and
    crash step of it ({!Machine.create}), and is emptied on every
    {!reset_play}. *)

val visible_at : play -> int -> Rme_util.Intset.t

val do_local : play -> pid:int -> Rme_sim.Trace.step
(** One setup-phase step; raises [Diverged] if it incurs an RMR. *)

val do_step : play -> pid:int -> hidden_as:int list -> Rme_sim.Trace.step

val do_complete :
  play -> pid:int -> on_step:(Rme_sim.Trace.step -> unit) -> bool * int
(** Run to completion within a fixed cap of 100,000 steps; returns
    (completed, steps). Updates visibility for every step. *)

val reset_play : play -> unit
(** Return the play to its just-created state in place ([Machine.reset]
    plus an empty visibility map), without building a new machine. *)

val replay :
  play -> ?keep:(int -> bool) -> (directive * record) Rme_util.Vec.t -> unit
(** Reset the play, then re-execute the directives of the processes for
    which [keep] holds (default: everyone), asserting every record
    ([play.checked] counts them). Raises [Diverged] on the first
    mismatch. *)
