let handle l =
  let stamp = Helper.now () in
  (Mid.pick l, stamp)
let decode_count n = Util.counted n
