(* Calendar queue (Brown, CACM 1988).  See the .mli for the design notes.

   Invariants:
   - a linked node is on exactly one bucket list; [abs] is its absolute
     (un-masked) bucket number [floor(time / width)], and the list lives
     at index [abs land mask]; an unlinked node has [abs = -1] and
     self-looped [prev]/[next];
   - every bucket list is circular, doubly linked, sorted by [(time, seq)];
     the array holds the list head (its minimum); an empty bucket holds
     the wheel's [nil] sentinel;
   - all linked nodes have [time >= last_time] (the engine never schedules
     into the past), hence [abs >= cur_abs], so the dequeue scan never has
     to look behind the cursor.

   The bucket array stores plain nodes, not options: [nil] is a per-wheel
   sentinel with [abs = max_int] and [time = infinity], so the dueness
   test [head.abs <= b] and the direct min search are both correct on an
   empty bucket without boxing every head in [Some].  [nil] never escapes
   the wheel and is never linked; its [value]/[wheel] fields are dummies
   that are never read.

   The dequeue scan walks absolute bucket numbers and tests dueness with
   the integer comparison [head.abs <= b].  An earlier version compared
   [head.time] against a float bucket edge accumulated by repeated
   addition; when an event's time sat within an ulp of its bucket edge the
   test could stay false forever and every pop degenerated into a
   full-wheel scan.  Integer bucket numbers make dueness exact.

   Physical equality is the identity test of the intrusive list (a node is
   its own identity; comparing payloads would be wrong), hence the
   pimlint H2 allows below.

   The per-event paths ([link], [find_min], [pop_until], [drain_until],
   [readd]) allocate nothing.  Their loops ([link_back], [scan],
   [min_head]) are top-level recursions that take the wheel, bucket and
   nodes as arguments: a local [let rec] over them would be a closure,
   built afresh on every call. *)

type 'a node = {
  mutable time : float;
  mutable seq : int;
  mutable value : 'a;
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable abs : int;
  wheel : 'a wheel;
}

and 'a wheel = {
  nil : 'a node;
  mutable buckets : 'a node array;
  mutable mask : int;
  mutable inv_width : float;
  mutable live : int;
  mutable cur_abs : int;
  mutable last_time : float;
}

type 'a t = 'a wheel

let min_buckets = 16

let max_buckets = 1 lsl 22

let create () =
  (* The sentinel's [value] and [wheel] are never read ([nil] is never
     returned, popped or cancelled); [Obj.magic 0] is an immediate, so the
     GC never follows it. *)
  let rec nil =
    {
      time = infinity;
      seq = max_int;
      value = Obj.magic 0;
      prev = nil;
      next = nil;
      abs = max_int;
      wheel = Obj.magic 0;
    }
  in
  {
    nil;
    buckets = Array.make min_buckets nil;
    mask = min_buckets - 1;
    inv_width = 1.0;
    live = 0;
    cur_abs = 0;
    last_time = 0.0;
  }

let length t = t.live

let is_empty t = t.live = 0

let time n = n.time

let seq n = n.seq

let value n = n.value

let linked n = n.abs >= 0

(* Ordering on [(time, seq)].  Written with primitive float comparisons
   rather than [Float.compare]: the 3-way compare is a C call on boxed
   floats, and this predicate sits on the hot path of every link.  Times
   are always finite here ([add] rejects NaN/infinities), so [<]/[=]
   agree with the total order. *)
let[@inline] node_le a b =
  a.time < b.time
  || (a.time = b.time && a.seq <= b.seq)

let[@inline] node_lt a b =
  a.time < b.time
  || (a.time = b.time && a.seq < b.seq)

(* Walk back from [p] toward [head] (the list of bucket [s]) for the last
   node not after [n], and insert [n] behind it; [n] becomes the head if
   it precedes everything. *)
let rec link_back t s head n p =
  if node_le p n then begin
    (* insert after [p] *)
    n.prev <- p;
    n.next <- p.next;
    p.next.prev <- n;
    p.next <- n
  end
  else if p == head then begin (* pimlint: allow H2 — intrusive list identity *)
    (* [n] precedes everything: insert before [head], become the head *)
    n.prev <- head.prev;
    n.next <- head;
    head.prev.next <- n;
    head.prev <- n;
    t.buckets.(s) <- n
  end
  else link_back t s head n p.prev

(* Link [n] into its bucket, keeping the list sorted by [(time, seq)].
   Scanning starts at the tail: monotone workloads (same-timestamp bursts,
   periodic re-arms) append in O(1), and the resize policy keeps average
   occupancy near one for everything else. *)
let link t n =
  let abs = int_of_float (n.time *. t.inv_width) in
  n.abs <- abs;
  let s = abs land t.mask in
  let head = t.buckets.(s) in
  if head == t.nil then begin (* pimlint: allow H2 — intrusive list identity *)
    n.prev <- n;
    n.next <- n;
    t.buckets.(s) <- n
  end
  else link_back t s head n head.prev;
  t.live <- t.live + 1

let unlink t n =
  let s = n.abs land t.mask in
  n.abs <- -1;
  t.live <- t.live - 1;
  if n.next == n then t.buckets.(s) <- t.nil (* pimlint: allow H2 — intrusive list identity *)
  else begin
    n.prev.next <- n.next;
    n.next.prev <- n.prev;
    if t.buckets.(s) == n then t.buckets.(s) <- n.next (* pimlint: allow H2 — intrusive list identity *)
  end;
  (* Self-loop so the wheel retains nothing through a dead node. *)
  n.prev <- n;
  n.next <- n

(* Pick a new size and width from the live population and relink every
   node.  Two passes over the old bucket lists, no intermediate storage:
   O(live), triggered geometrically, so the amortized cost per operation
   is constant. *)
let resize t =
  let old = t.buckets in
  let nil = t.nil in
  let count = t.live in
  let tmin = ref infinity and tmax = ref neg_infinity in
  Array.iter
    (fun head ->
      if head != nil then begin (* pimlint: allow H2 — intrusive list identity *)
        let rec walk n =
          if n.time < !tmin then tmin := n.time;
          if n.time > !tmax then tmax := n.time;
          if n.next != head then walk n.next (* pimlint: allow H2 — intrusive list identity *)
        in
        walk head
      end)
    old;
  let pow2_at_least x =
    let rec go p = if p >= x then p else go (p * 2) in
    go min_buckets
  in
  (* Size to 4x the live population: growth then triggers on every
     8x increase rather than every doubling, which matters because a
     resize relinks every live node — with plain doubling a steadily
     growing queue spends half its link work on relinks. *)
  let n_buckets = min max_buckets (pow2_at_least (4 * count)) in
  let width =
    if count > 0 && !tmax > !tmin then
      (* ~3 buckets per average inter-event gap; the whole wheel then
         spans three times the live population's time range. *)
      Float.max 1e-9 (3.0 *. (!tmax -. !tmin) /. float_of_int count)
    else 1.0 /. t.inv_width
  in
  t.buckets <- Array.make n_buckets nil;
  t.mask <- n_buckets - 1;
  t.inv_width <- 1.0 /. width;
  t.live <- 0;
  t.cur_abs <- int_of_float (t.last_time *. t.inv_width);
  Array.iter
    (fun head ->
      if head != nil then begin (* pimlint: allow H2 — intrusive list identity *)
        (* The old array is discarded wholesale, so there is no need to
           keep the old list consistent while walking it: save each
           node's successor before [link] overwrites its pointers. *)
        let rec walk n =
          let nxt = n.next in
          link t n;
          if nxt != head then walk nxt (* pimlint: allow H2 — intrusive list identity *)
        in
        walk head
      end)
    old

(* [add] is [link] with the node construction fused in: initializing
   stores at allocation skip the write barrier, so building the node with
   its final [prev]/[next] (instead of self-loops later overwritten)
   costs 2 barriered stores per append instead of 4 — the barrier is the
   dominant cost of a link.  The out-of-order-within-bucket case (rare:
   buckets average ~1 distinct timestamp) self-loops and takes the
   general sorted walk. *)
let add t ~time ~seq v =
  (* [x -. x = 0.] iff [x] is finite; inline, unlike [Float.is_finite]. *)
  if time -. time <> 0. then invalid_arg "Timer_wheel.add: non-finite time"; (* pimlint: allow H2 — finiteness test *)
  if t.live >= 2 * Array.length t.buckets && Array.length t.buckets < max_buckets then resize t;
  let abs = int_of_float (time *. t.inv_width) in
  let s = abs land t.mask in
  let head = t.buckets.(s) in
  if head == t.nil then begin (* pimlint: allow H2 — intrusive list identity *)
    let rec n = { time; seq; value = v; prev = n; next = n; abs; wheel = t } in
    t.buckets.(s) <- n;
    t.live <- t.live + 1;
    n
  end
  else begin
    let tl = head.prev in
    if
      time > tl.time
      || (time = tl.time && seq >= tl.seq)
    then begin
      (* append after the tail: the common case for monotone workloads *)
      let n = { time; seq; value = v; prev = tl; next = head; abs; wheel = t } in
      tl.next <- n;
      head.prev <- n;
      t.live <- t.live + 1;
      n
    end
    else begin
      let rec n = { time; seq; value = v; prev = n; next = n; abs = -1; wheel = t } in
      link t n;
      n
    end
  end

let cancel n = if n.abs >= 0 then unlink n.wheel n

(* The earliest bucket head from index [i] on, or [best] if none is
   strictly earlier: the first strictly smaller head wins ties.
   [nil.time = infinity] loses every comparison, so empty buckets never
   win. *)
let rec min_head buckets i best =
  if i >= Array.length buckets then best
  else
    let h = buckets.(i) in
    min_head buckets (i + 1) (if node_lt h best then h else best)

(* The first due head from absolute bucket [b] on, looking at most
   [remaining] buckets ahead.  [nil.abs = max_int] keeps empty buckets
   non-due.  When a whole revolution holds nothing due (the next event is
   more than one wheel revolution ahead), an O(buckets) direct search for
   the global minimum head. *)
let rec scan t b remaining =
  if remaining = 0 then min_head t.buckets 0 t.nil
  else
    let head = t.buckets.(b land t.mask) in
    if head.abs <= b then head else scan t (b + 1) (remaining - 1)

(* Find the minimum element WITHOUT mutating the wheel.  The cursor is
   only committed by the popping callers once the horizon check passes:
   committing eagerly would advance it past a never-popped future event,
   and an element added later (earlier in time, but behind the advanced
   cursor) would then fire out of order.  Returns [t.nil] when empty. *)
let find_min t = scan t t.cur_abs (Array.length t.buckets)

let maybe_shrink t =
  (* Lazy threshold (1/32 occupancy): a draining queue should not pay a
     cascade of shrink relinks on the way down; the only cost of an
     oversized wheel is the rare direct-search fallback. *)
  if t.live < Array.length t.buckets / 32 && Array.length t.buckets > min_buckets then resize t

let pop_until t ~limit =
  if t.live = 0 then None
  else begin
    maybe_shrink t;
    let h = find_min t in
    if h.time > limit then None
    else begin
      t.cur_abs <- h.abs;
      unlink t h;
      t.last_time <- h.time;
      Some h
    end
  end

let pop t = pop_until t ~limit:infinity

let set_value n v = n.value <- v

let readd n ~time ~seq =
  if n.abs >= 0 then invalid_arg "Timer_wheel.readd: node is linked";
  if time -. time <> 0. then invalid_arg "Timer_wheel.readd: non-finite time"; (* pimlint: allow H2 — finiteness test *)
  n.time <- time;
  n.seq <- seq;
  let t = n.wheel in
  if t.live >= 2 * Array.length t.buckets && Array.length t.buckets < max_buckets then resize t;
  link t n

let drain_until t ~limit f =
  (* Same loop as repeated [pop_until], minus the [Some] box per element:
     on a hot engine run that is one allocation per event. *)
  let rec go () =
    if t.live > 0 then begin
      maybe_shrink t;
      let h = find_min t in
      if h.time <= limit then begin
        t.cur_abs <- h.abs;
        unlink t h;
        t.last_time <- h.time;
        f h;
        go ()
      end
    end
  in
  go ()
