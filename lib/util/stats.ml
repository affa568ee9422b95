let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let gmean = function
  | [] -> invalid_arg "Stats.gmean: empty"
  | xs ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.gmean: non-positive element";
          acc +. log x)
        0.0 xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: xs -> List.fold_left (fun (lo, hi) y -> (min lo y, max hi y)) (x, x) xs

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
    if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) idx))

(* --- log-bucketed histograms -------------------------------------------

   Retaining every latency sample of a long-lived daemon is unbounded
   memory; a log-bucketed histogram keeps percentile derivation O(buckets)
   and bounds the relative error of any quantile by the bucket growth
   factor. counts.(0) is the underflow bucket (< lo), counts.(n+1) the
   overflow bucket (>= lo * growth^n); middle bucket i covers
   [lo * growth^(i-1), lo * growth^i). *)

type hist = {
  h_lo : float;
  h_growth : float;
  h_log_growth : float;
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float; (* +inf until the first observation *)
  mutable h_max : float; (* -inf until the first observation *)
}

let hist_create ?(lo = 1e-6) ?(growth = 10.0 ** 0.2) ?(buckets = 45) () =
  if lo <= 0.0 then invalid_arg "Stats.hist_create: lo must be > 0";
  if growth <= 1.0 then invalid_arg "Stats.hist_create: growth must be > 1";
  if buckets < 1 then invalid_arg "Stats.hist_create: buckets must be >= 1";
  {
    h_lo = lo;
    h_growth = growth;
    h_log_growth = log growth;
    h_counts = Array.make (buckets + 2) 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let hist_n_buckets h = Array.length h.h_counts - 2

(* Lower bound of middle bucket [i] (1-based among the middle buckets). *)
let bucket_lo h i = h.h_lo *. (h.h_growth ** float_of_int (i - 1))

let bucket_index h v =
  let n = hist_n_buckets h in
  if v < h.h_lo then 0
  else if v = infinity then n + 1
  else
    let i = int_of_float (log (v /. h.h_lo) /. h.h_log_growth) in
    if i >= n then n + 1 else 1 + i

let hist_add h v =
  if not (Float.is_nan v) then begin
    let i = bucket_index h v in
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_min h = if h.h_count = 0 then None else Some h.h_min
let hist_max h = if h.h_count = 0 then None else Some h.h_max

let hist_mean h =
  if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let hist_copy h = { h with h_counts = Array.copy h.h_counts }

let hist_merge a b =
  if
    a.h_lo <> b.h_lo || a.h_growth <> b.h_growth
    || Array.length a.h_counts <> Array.length b.h_counts
  then invalid_arg "Stats.hist_merge: shape mismatch";
  {
    a with
    h_counts =
      Array.init (Array.length a.h_counts) (fun i ->
          a.h_counts.(i) + b.h_counts.(i));
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_min = Float.min a.h_min b.h_min;
    h_max = Float.max a.h_max b.h_max;
  }

let hist_buckets h =
  let n = hist_n_buckets h in
  let out = ref [] in
  for i = Array.length h.h_counts - 1 downto 0 do
    if h.h_counts.(i) > 0 then begin
      let lo, hi =
        if i = 0 then (0.0, h.h_lo)
        else if i = n + 1 then (bucket_lo h (n + 1), infinity)
        else (bucket_lo h i, bucket_lo h (i + 1))
      in
      out := (lo, hi, h.h_counts.(i)) :: !out
    end
  done;
  !out

let percentile_hist p h =
  if h.h_count = 0 then invalid_arg "Stats.percentile_hist: empty";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile_hist: p out of range";
  let n = h.h_count in
  let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
  (* the extreme ranks are known exactly: nearest-rank 1 is the smallest
     sample and nearest-rank n the largest, both tracked outside buckets *)
  if rank = 1 then h.h_min
  else if rank >= n then h.h_max
  else
  let rec find i cum =
    let c = h.h_counts.(i) in
    if cum + c >= rank then (i, cum, c) else find (i + 1) (cum + c)
  in
  let i, cum, c = find 0 0 in
  let nb = hist_n_buckets h in
  let blo, bhi =
    if i = 0 then (Float.min h.h_min h.h_lo, h.h_lo)
    else if i = nb + 1 then (bucket_lo h (nb + 1), Float.max h.h_max (bucket_lo h (nb + 1)))
    else (bucket_lo h i, bucket_lo h (i + 1))
  in
  (* linear interpolation at the rank's position within the bucket, clamped
     to the observed range so a sparse bucket cannot report a value no
     sample ever reached *)
  let v = blo +. ((bhi -. blo) *. (float_of_int (rank - cum) /. float_of_int c)) in
  Float.min h.h_max (Float.max h.h_min v)
